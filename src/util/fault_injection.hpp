// Deterministic fault injection for the durable-state plane. Production
// code marks its fault sites ("snapshot.write", "detector.restore", ...)
// with FaultInjector::at(); with no injector installed the call is a
// null-pointer check and every site behaves normally. Tests install one
// (FaultInjector::Scope) and either arm a specific fault at the nth
// occurrence of a site or run a seeded random sweep, so every crash and
// torn-byte scenario the differential suites exercise is replayable from
// (seed, site, occurrence) alone — no timing, no signals, no real disk
// failures.
//
// Crash faults are modelled as InjectedCrash exceptions thrown at the
// site: the process state afterwards (half-written tmp file, renamed but
// unreported snapshot, ...) is exactly the on-disk state a kill at that
// instruction boundary would leave, while the test harness survives to
// restart and verify recovery.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace spoofscope::util {

/// What a fault site is asked to do. Each site passes the kinds it can
/// express; armed or randomly-drawn kinds outside that set are ignored.
enum class FaultKind : std::uint8_t {
  kNone = 0,
  kShortWrite,        ///< persist a prefix of the bytes, then crash
  kEnospc,            ///< the write fails cleanly (disk full)
  kCrashBeforeRename, ///< tmp file complete, rename never happens
  kCrashAfterRename,  ///< rename done, caller never learns of it
  kShortRead,         ///< the reader sees a truncated byte span
  kTornPage,          ///< one 4 KiB page of the read reverts to zeros
  kCrash,             ///< plain crash at the site (no I/O half-state)
};

/// "short-write", "enospc", ... for logs and test names.
std::string_view fault_kind_name(FaultKind kind);

/// The modelled crash. Deliberately not a std::runtime_error subclass of
/// SnapshotError or any ingest error: recovery paths that translate
/// "damaged data" must never swallow "the process died here".
class InjectedCrash : public std::runtime_error {
 public:
  explicit InjectedCrash(std::string_view site)
      : std::runtime_error("injected crash at " + std::string(site)) {}
};

class FaultInjector {
 public:
  /// Manual mode: faults fire only where arm() planted them.
  FaultInjector() = default;

  /// Random-sweep mode: every site occurrence draws from a counter-keyed
  /// hash of `seed`, firing with `probability` and picking uniformly
  /// among the kinds the site allows. Same seed, same instrumented run
  /// => same faults.
  FaultInjector(std::uint64_t seed, double probability);

  /// Arms `kind` at the `nth` (1-based) occurrence of `site`.
  void arm(std::string_view site, std::uint64_t nth, FaultKind kind);

  /// Called by instrumented code at each fault site. Counts the
  /// occurrence and returns the fault to apply (almost always kNone).
  FaultKind at(std::string_view site, std::initializer_list<FaultKind> allowed);

  /// Deterministic auxiliary draw in [0, bound) tied to the last fault
  /// returned by at() — sites use it to pick the torn page or the
  /// short-read cut without consulting a global RNG.
  std::uint64_t pick(std::uint64_t bound);

  /// Times `site` was reached so far.
  std::uint64_t occurrences(std::string_view site) const;

  /// Total faults fired (any site, any kind).
  std::uint64_t injected() const;

  /// The installed injector, or nullptr (the common case).
  static FaultInjector* current();

  /// RAII install/uninstall. Nesting restores the previous injector.
  class Scope {
   public:
    explicit Scope(FaultInjector& injector);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    FaultInjector* prev_;
  };

 private:
  struct Armed {
    std::uint64_t nth;
    FaultKind kind;
  };

  mutable std::mutex mu_;
  std::map<std::string, std::vector<Armed>, std::less<>> armed_;
  std::map<std::string, std::uint64_t, std::less<>> counts_;
  bool random_ = false;
  std::uint64_t seed_ = 0;
  double probability_ = 0;
  std::uint64_t aux_ = 0;  ///< state behind pick()
  std::uint64_t injected_ = 0;
};

}  // namespace spoofscope::util
