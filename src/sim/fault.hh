/**
 * @file
 * Deterministic fault injection and recovery policy.
 *
 * A FaultPlan is a *schedule*, not a dice roll at construction: every
 * component that consults it forks a private RNG stream keyed by the
 * plan seed and the component's name, so the same plan produces the
 * same faults at the same service ticks regardless of how many worker
 * threads run the surrounding experiment sweep. A plan with every rate
 * at zero builds no injector at all — the fault-free request path is
 * byte-identical to a build that never heard of faults.
 *
 * The RetryPolicy is the request-side half: how many service attempts a
 * StorageChannel makes before abandoning a request, how long it backs
 * off between attempts (exponential, with jitter drawn from the
 * request's own RNG fork), and an optional end-to-end deadline after
 * which the request is timed out rather than retried.
 */

#ifndef SMARTSAGE_SIM_FAULT_HH
#define SMARTSAGE_SIM_FAULT_HH

#include <cstdint>
#include <string_view>
#include <vector>

#include "random.hh"
#include "types.hh"

namespace smartsage::sim
{

/**
 * Injectable-fault schedule shared by every storage component.
 *
 * Rates are per-service-attempt probabilities in [0, 1]; outage
 * windows are periodic per-shard down intervals. All defaults are
 * zero/off so a default-constructed plan is inert.
 */
struct FaultPlan
{
    /** Master seed; each component forks its own stream from it. */
    std::uint64_t seed = 0xfa0175eedULL;

    /** Probability a host-I/O service attempt fails transiently. */
    double read_error_rate = 0.0;
    /** Probability a host-I/O service attempt runs slow. */
    double slow_rate = 0.0;
    /** Service-time multiplier applied to a slow attempt (>= 1). */
    double slow_multiplier = 8.0;

    /** Probability a flash page sense needs an ECC retry. */
    double ecc_rate = 0.0;
    /** Extra die occupancy per ECC retry. */
    Tick ecc_retry = us(60);

    /** Fraction of each outage period a shard spends down, in [0, 1). */
    double shard_outage_rate = 0.0;
    /** Outage window period. */
    Tick outage_period = ms(50);
    /** Latency multiplier for reads rerouted around a down shard. */
    double degraded_penalty = 4.0;

    /**
     * Recovery-experiment crash point: the training run is killed
     * while batch index kill_batch (0-based) is in flight, so batches
     * [0, kill_batch) have completed and any checkpoint due at or
     * before that cursor has been written. 0 disables. Deliberately
     * not part of enabled(): a kill schedule alone injects no storage
     * faults, so it must not perturb fault-gated serving metrics.
     */
    std::uint64_t kill_batch = 0;

    /** Host-path injector needed (transient errors or slow service). */
    bool
    injectsHostFaults() const
    {
        return read_error_rate > 0.0 || slow_rate > 0.0;
    }

    /** Flash-path injector needed. */
    bool injectsEcc() const { return ecc_rate > 0.0; }

    /** Shard outage schedule needed. */
    bool injectsOutages() const { return shard_outage_rate > 0.0; }

    /** Any fault source active. */
    bool
    enabled() const
    {
        return injectsHostFaults() || injectsEcc() || injectsOutages();
    }

    /** Crash schedule active (recovery experiments). */
    bool wantsKill() const { return kill_batch != 0; }
};

/**
 * Retry/timeout policy for a StorageChannel's submissions.
 *
 * max_attempts == 1 means no retries; timeout == 0 means no deadline.
 * Backoff before attempt n (n >= 2) is
 * min(backoff_cap, backoff_base << (n - 2)) plus a uniform jitter in
 * [0, jitter * backoff) drawn from the request's RNG fork. With
 * jitter == 0 no random draw is made, so zero-jitter goldens are
 * stream-exact.
 */
struct RetryPolicy
{
    unsigned max_attempts = 3; //!< total service attempts (>= 1)
    Tick backoff_base = us(100);
    Tick backoff_cap = ms(10);
    double jitter = 0.5;
    Tick timeout = 0; //!< end-to-end deadline; 0 disables

    /** Deadline enforcement requested. */
    bool wantsDeadline() const { return timeout != 0; }
};

/** Shortest service granularity a deadline may meaningfully cover. */
constexpr Tick minServiceTick = us(1);

/**
 * Apply one `fault.`-namespace knob (namespace already stripped).
 * @return false if the key is unknown
 */
bool applyKnob(FaultPlan &plan, std::string_view key, double value);

/**
 * Apply one `retry.`-namespace knob (namespace already stripped).
 * @return false if the key is unknown
 */
bool applyKnob(RetryPolicy &policy, std::string_view key, double value);

/** Fatal on impossible fault-plan values (rates outside [0,1], ...). */
void validate(const FaultPlan &plan);

/** Fatal on impossible retry-policy values (zero attempts, ...). */
void validate(const RetryPolicy &policy);

/**
 * Per-component fault source: a FaultPlan view with a private RNG
 * stream forked from the plan seed and the component name, so the
 * draw sequence is independent of every other component's.
 */
class FaultInjector
{
  public:
    FaultInjector(const FaultPlan &plan, std::string_view component);

    /** Does this service attempt fail transiently? */
    bool drawReadError();

    /**
     * Stretch a service interval if this attempt draws a slowdown.
     * @return the (possibly later) finish tick
     */
    Tick slowed(Tick start, Tick finish);

    /** Does this page sense need an ECC retry? */
    bool drawEccRetry();

    const FaultPlan &plan() const { return plan_; }

    /** Restore the initial draw stream (experiment re-run). */
    void reset();

  private:
    FaultPlan plan_;
    Rng initial_;
    Rng rng_;
};

/**
 * Deterministic periodic outage windows for a sharded store.
 *
 * Each shard is down for shard_outage_rate * outage_period ticks out
 * of every outage_period, with a per-shard phase offset derived from
 * the plan seed — so shards fail at staggered times and membership is
 * a pure function of (shard, tick). No mutable state, nothing to
 * reset.
 */
class OutageSchedule
{
  public:
    OutageSchedule(const FaultPlan &plan, unsigned shards);

    /** Is @p shard inside an outage window at @p tick? */
    bool down(unsigned shard, Tick tick) const;

  private:
    Tick period_;
    Tick down_ticks_;
    std::vector<Tick> phase_;
};

} // namespace smartsage::sim

#endif // SMARTSAGE_SIM_FAULT_HH
