/**
 * @file
 * Deterministic, seeded fault-injection framework.
 *
 * Production hardening is only as good as its tests, and failure paths
 * are untestable unless failures can be provoked *reproducibly*. This
 * framework names the injection sites the robustness contract covers —
 * task execution, MLP decode, trace read/write/flush, session
 * admission, per-session frame render/deadline — and arms them with
 * per-site trigger windows expressed in *hit counts*, never wall
 * clocks: "fire on the 3rd hit of mlp_decode, twice" behaves
 * identically on every run and at every thread count (under
 * concurrency, whichever thread lands the Nth hit fires — the total
 * fired count is still exact).
 *
 * Arming:
 *  - programmatically: faultArm(site, spec) / faultArmSpec("...") —
 *    what the test suites use;
 *  - externally: the CICERO_FAULTS environment variable or the CLI
 *    tools' --faults flag, both carrying the same spec grammar:
 *
 *        spec    := site-arm (';' site-arm)*
 *        site-arm:= site-name (':' param)*
 *        param   := 'after=' N    skip the first N hits (default 0)
 *                 | 'count=' N    then fire N times (default: forever)
 *                 | 'key=' K      only hits tagged with key K count
 *
 *    e.g. CICERO_FAULTS="trace_write;frame_render:key=2:count=4"
 *
 * An armed site *throws* FaultInjectedError from faultCheck() — the
 * error then travels the exact path a real failure would (scheduler
 * exception capture, serve retry/quarantine, CLI error mapping).
 * Sites that degrade rather than fail (frame_deadline) consult
 * faultShouldFire() instead, which fires without throwing.
 *
 * The disarmed fast path is one relaxed atomic load; the hot kernels
 * keep their cost.
 */

#ifndef CICERO_COMMON_FAULT_HH
#define CICERO_COMMON_FAULT_HH

#include <cstdint>
#include <stdexcept>
#include <string>

namespace cicero {

/** Named fault-injection sites (keep faultSiteName in sync). */
enum class FaultSite : int
{
    TaskExec = 0,    //!< scheduler task body (common/parallel.cc)
    MlpDecode,       //!< Decoder::decodeBatchSoA entry, once per ray block
    TraceRead,       //!< .ctrace container parse (memory/tracefile.cc)
    TraceWrite,      //!< .ctrace container finalize/write
    TraceFlush,      //!< TraceSink::onFlush persistence path
    SessionAdmit,    //!< RenderService admission (serve/)
    FrameRender,     //!< serve frame task body (keyed by session id)
    FrameDeadline,   //!< serve frame deadline check (non-throwing)
    Count_,          //!< sentinel — not a site
};

constexpr int kNumFaultSites = static_cast<int>(FaultSite::Count_);

/** Spec name of @p site ("task_exec", "mlp_decode", ...). */
const char *faultSiteName(FaultSite site);

/** Parse a site name; returns false on an unknown name. */
bool faultSiteFromName(const std::string &name, FaultSite &out);

/** Matches any key (the default for un-keyed arms). */
constexpr std::int64_t kFaultAnyKey = INT64_MIN;

/** One site's trigger window. */
struct FaultSpec
{
    std::uint64_t after = 0; //!< skip this many matching hits first
    std::uint64_t count =
        UINT64_MAX;          //!< then fire on this many hits
    std::int64_t key = kFaultAnyKey; //!< only hits with this key match
};

/**
 * The typed error an armed site throws. Deriving from
 * std::runtime_error keeps every existing catch site working; carrying
 * the site lets handlers (and tests) tell injected faults apart.
 */
class FaultInjectedError : public std::runtime_error
{
  public:
    FaultInjectedError(FaultSite site, std::uint64_t hit);

    FaultSite site() const { return _site; }

    /** 1-based index of the matching hit that fired. */
    std::uint64_t hit() const { return _hit; }

  private:
    FaultSite _site;
    std::uint64_t _hit;
};

/** Spec-string syntax error (typed; derives runtime_error). */
class FaultSpecError : public std::runtime_error
{
  public:
    explicit FaultSpecError(const std::string &what)
        : std::runtime_error("fault spec: " + what)
    {
    }
};

/** Arm @p site with @p spec (replaces any previous arm of the site). */
void faultArm(FaultSite site, const FaultSpec &spec = {});

/**
 * Arm sites from a spec string (grammar in the file header).
 * @throws FaultSpecError on malformed text. An empty string is a
 *         no-op.
 */
void faultArmSpec(const std::string &spec);

/** Disarm every site and zero the hit/fired counters. */
void faultDisarmAll();

/** True when at least one site is armed (fast: one relaxed load). */
bool faultsArmed();

/**
 * Record a hit on @p site (tagged @p key) and throw FaultInjectedError
 * when the site's armed window covers it. The no-faults fast path is a
 * single relaxed atomic load.
 */
void faultCheck(FaultSite site, std::int64_t key = kFaultAnyKey);

/**
 * As faultCheck(), but returns true instead of throwing — for sites
 * whose contract is degradation, not failure (frame_deadline).
 */
bool faultShouldFire(FaultSite site, std::int64_t key = kFaultAnyKey);

/** Per-site observability counters. */
struct FaultSiteCounters
{
    std::uint64_t hits = 0;  //!< matching faultCheck/ShouldFire calls
    std::uint64_t fired = 0; //!< hits inside the armed window
    bool armed = false;
};

/** All sites' counters (index by static_cast<int>(site)). */
struct FaultCounters
{
    FaultSiteCounters site[kNumFaultSites];

    std::uint64_t
    totalFired() const
    {
        std::uint64_t n = 0;
        for (const auto &s : site)
            n += s.fired;
        return n;
    }
};

FaultCounters faultCounters();

/**
 * Arm from the CICERO_FAULTS environment variable. Called lazily by
 * the first faultsArmed()/faultCheck(); safe (and idempotent) to call
 * explicitly. A malformed variable is reported once on stderr and
 * ignored — an operator typo must not change program behavior beyond
 * the warning.
 */
void faultInitFromEnv();

/**
 * RAII guard for tests: disarms all sites (and zeroes counters) on
 * scope exit, so an armed test cannot leak faults into the next.
 */
struct FaultScope
{
    FaultScope() = default;
    explicit FaultScope(const std::string &spec) { faultArmSpec(spec); }
    ~FaultScope() { faultDisarmAll(); }
    FaultScope(const FaultScope &) = delete;
    FaultScope &operator=(const FaultScope &) = delete;
};

} // namespace cicero

#endif // CICERO_COMMON_FAULT_HH
