/**
 * @file
 * Asynchronous storage request primitives.
 *
 * The storage stack's components service `IoRequest`s through
 * `StorageChannel`s: bounded FIFO service stations driven by the
 * discrete-event kernel (event_queue.hh). A request submitted while the
 * channel has a free slot dispatches immediately; otherwise it waits in
 * the channel's pending queue until an in-flight request completes, so
 * queue-depth contention emerges from queueing rather than serialized
 * timeline math. The busy-until Resource models (resource.hh) remain
 * the *service-time* math inside a dispatch; the channel layer decides
 * *when* a request may begin service.
 *
 * A request is submitted one way, `StorageChannel::submit`, as an
 * attempt callable that may fail; the channel's RetryPolicy turns a
 * failed attempt into a backoff and retry, a timeout or an abandon.
 *
 * The edge stores' blocking gathers (`TimedEdgeStore::readGather`) are
 * served in place: `StorageChannel::serveNow` computes one request on
 * an idle channel directly — the same counter updates, jitter stream
 * and retry/timeout rules as the event path (one shared helper decides
 * each attempt), with no event queue. A lone request on an idle
 * channel never queues, so the ticks equal a submit-and-drain of the
 * async port. `drainOne` remains the submit-and-drain adapter for
 * callers whose async port reshapes traffic (the feature-cache
 * decorator's MSHRs).
 */

#ifndef SMARTSAGE_SIM_IO_HH
#define SMARTSAGE_SIM_IO_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "event_queue.hh"
#include "fault.hh"
#include "logging.hh"
#include "random.hh"
#include "types.hh"

namespace smartsage::sim
{

/**
 * How a request ended. Ok requests carry valid data; TransientError
 * means every service attempt failed (retries exhausted); Timeout
 * means the request missed its end-to-end deadline; Shed means
 * admission control rejected the request before it ever queued.
 */
enum class IoStatus : std::uint8_t
{
    Ok = 0,
    TransientError,
    Timeout,
    Shed,
};

/** Human-readable status name (stats rows, fatal messages). */
const char *ioStatusName(IoStatus status);

/**
 * Which pending request a StorageChannel pulls forward when a service
 * slot frees. Fifo is the historical arrival-order behavior and the
 * default; with every request carrying a default DispatchTag the other
 * policies degenerate to Fifo's selection, so the policy knob alone
 * never perturbs an untagged workload.
 */
enum class DispatchPolicy : std::uint8_t
{
    Fifo = 0,     //!< strict arrival order
    Priority,     //!< highest priority; ties by deadline, then arrival
    Deadline,     //!< earliest deadline first; ties by priority, then arrival
};

/** Human-readable policy name (docs, tables). */
const char *dispatchPolicyName(DispatchPolicy policy);

/**
 * Per-request scheduling metadata carried through a channel's pending
 * queue. The default tag (priority 0, no deadline) is what every
 * legacy submission carries, so untagged traffic is indistinguishable
 * from the pre-policy channel.
 */
struct DispatchTag
{
    /** Larger dispatches first under DispatchPolicy::Priority. */
    int priority = 0;
    /** Absolute completion deadline in ticks; 0 means none. Used by
     *  DispatchPolicy::Deadline and by SLO-aware admission. */
    Tick deadline = 0;
};

/** Scheduling policy knob block (`sched.*` namespace). */
struct SchedConfig
{
    DispatchPolicy policy = DispatchPolicy::Fifo;
};

/**
 * Admission control at a channel's submit edge (`admit.*` namespace).
 * Both knobs default off, in which case the admission check is never
 * evaluated and the submit path is byte-identical to the unguarded
 * channel.
 */
struct AdmissionControl
{
    /** Pending-queue bound; a submission arriving with this many
     *  requests already waiting is shed. 0 disables the bound. */
    std::size_t max_queue = 0;
    /**
     * Shed deadline-carrying requests that cannot plausibly meet their
     * deadline: the channel estimates this request's completion tick
     * from the mean service time of completed requests and the current
     * queue length, and shed when the estimate lands past the
     * deadline. Purely deterministic (no RNG draw).
     */
    bool slo_aware = false;

    /** Any admission rule active. */
    bool
    enabled() const
    {
        return max_queue != 0 || slo_aware;
    }
};

/**
 * Apply one `sched.`-namespace knob (namespace already stripped).
 * Fatal on an out-of-range policy id. @return false if the key is
 * unknown
 */
bool applyKnob(SchedConfig &config, std::string_view key, double value);

/**
 * Apply one `admit.`-namespace knob (namespace already stripped).
 * @return false if the key is unknown
 */
bool applyKnob(AdmissionControl &admit, std::string_view key,
               double value);

/** Completion callback: invoked at the request's finish tick. */
using IoCompletion = std::function<void(Tick finish, IoStatus status)>;

/** Result of one service attempt. */
struct IoOutcome
{
    Tick finish = 0;
    IoStatus status = IoStatus::Ok;
};

/** One in-flight storage request (serving-mode bookkeeping). */
struct IoRequest
{
    std::uint64_t id = 0;   //!< caller-assigned identifier
    Tick submit = 0;        //!< tick handed to the port
    Tick dispatch = 0;      //!< tick service admission began
    Tick complete = 0;      //!< tick the data became usable

    /** End-to-end latency including queueing. */
    Tick latency() const { return complete - submit; }

    /** Time spent waiting for a channel slot. */
    Tick queueWait() const { return dispatch - submit; }
};

/**
 * Fatal exit of a blocking request that ended with a non-Ok @p status:
 * a blocking caller has nowhere to report it. @p component and
 * @p request_id identify the offender in the message.
 */
[[noreturn]] void failBlockingRequest(std::string_view component,
                                      IoStatus status,
                                      std::uint64_t request_id);

/**
 * A bounded service station (FIFO by default).
 *
 * At most `depth` requests are in service at once; excess submissions
 * wait in arrival order and are pulled forward by the channel's
 * DispatchPolicy when a slot frees (Fifo reproduces strict arrival
 * order; Priority and Deadline reorder by DispatchTag). An optional
 * AdmissionControl sheds submissions at the submit edge before they
 * queue. Service itself is expressed as an attempt callback so any
 * existing timing math (busy-until servers, links, nested blocking
 * calls) can stand in as the station's service process: attempt(start,
 * n) returns the finish tick and status of attempt n, and the slot is
 * held until the request's final attempt finishes.
 */
class StorageChannel
{
  public:
    /**
     * Service attempt: runs the service-time math for attempt number
     * @p attempt (1-based) starting at @p start and reports the finish
     * tick plus whether the attempt succeeded. The channel's
     * RetryPolicy decides what a non-Ok outcome turns into.
     */
    using Service = std::function<IoOutcome(Tick start, unsigned attempt)>;

    /** @param depth maximum requests in service at once (>= 1) */
    StorageChannel(std::string name, unsigned depth);

    /** Install the retry/timeout policy for later submissions. */
    void setRetryPolicy(const RetryPolicy &policy);
    const RetryPolicy &retryPolicy() const { return retry_; }

    /** Select which pending request dispatches when a slot frees.
     *  Fifo (the default) reproduces the historical arrival order. */
    void setDispatchPolicy(DispatchPolicy policy) { policy_ = policy; }
    DispatchPolicy dispatchPolicy() const { return policy_; }

    /** Install admission control at the submit edge; the default
     *  (all-off) control never evaluates the admission check. */
    void setAdmission(const AdmissionControl &admit) { admit_ = admit; }
    const AdmissionControl &admission() const { return admit_; }

    /**
     * Submit a request at eq.now(). The channel re-runs @p service with
     * exponential backoff (jitter from a per-request RNG fork) until an
     * attempt succeeds, the policy's attempt budget is exhausted
     * (TransientError), or the end-to-end deadline passes (Timeout);
     * an always-Ok service under the default policy completes after
     * its one attempt. The slot is held across retries — a retrying
     * command still occupies its queue entry. @p tag carries the
     * scheduling metadata (default: untagged/FIFO). A deadline in
     * @p tag steers Deadline dispatch and SLO-aware admission; it does
     * not time the request out (that stays the RetryPolicy's business),
     * so a late request is still answered and its latency recorded.
     */
    void submit(EventQueue &eq, Service service, IoCompletion done,
                const DispatchTag &tag = {});

    /**
     * Serve one blocking request in place: @p service (an attempt
     * callable, `IoOutcome(Tick start, unsigned attempt)`) arrives at
     * @p arrival on this idle channel. Bit-identical to
     * drainOne(submit) — counters, jitter stream, deadline and
     * retry/backoff/abandon/timeout outcomes — without an event queue.
     * A blocking caller has nowhere to report a failed request, so a
     * non-Ok final status is fatal; @p component names the offender.
     * @pre idle()
     * @return completion tick
     */
    template <typename Attempt>
    Tick
    serveNow(Tick arrival, Attempt &&service,
             std::string_view component = "blocking adapter")
    {
        SS_ASSERT(idle(), "channel '", name_,
                  "' serves in place only when idle");
        Jitter jitter(submitted_);
        const Tick deadline =
            retry_.wantsDeadline() ? arrival + retry_.timeout : 0;
        ++submitted_;
        peak_outstanding_ = std::max<std::uint64_t>(peak_outstanding_, 1);
        Tick start = arrival;
        AttemptVerdict verdict;
        for (unsigned attempt = 1;; ++attempt) {
            verdict =
                runAttemptAt(start, attempt, deadline, jitter, service);
            if (!verdict.retry)
                break;
            start = verdict.at;
        }
        ++completed_;
        total_service_ += verdict.at - arrival;
        if (verdict.status != IoStatus::Ok)
            failBlockingRequest(component, verdict.status,
                                jitter.request_id);
        return verdict.at;
    }

    /** No request in service and none pending. */
    bool
    idle() const
    {
        return in_flight_ == 0 && pending_.empty();
    }

    unsigned depth() const { return depth_; }

    /** Requests currently in service. */
    unsigned inFlight() const { return in_flight_; }
    /** Requests waiting for a slot. */
    std::size_t queued() const { return pending_.size(); }

    // ---- lifetime counters ----
    std::uint64_t submitted() const { return submitted_; }
    std::uint64_t completed() const { return completed_; }
    /** High-water mark of in-service plus waiting requests. */
    std::uint64_t peakOutstanding() const { return peak_outstanding_; }
    /**
     * Requests dispatched out of the pending queue. Queue-wait stats
     * cover only these: a request dispatched straight into a free slot
     * never queued, and counting its zero wait would drag the mean
     * wait of the requests that did queue toward zero.
     */
    std::uint64_t queuedCount() const { return queued_; }
    /** Total ticks queued requests spent waiting for a slot. */
    Tick totalQueueWait() const { return total_queue_wait_; }
    /** Largest single queue wait. */
    Tick maxQueueWait() const { return max_queue_wait_; }

    // ---- recovery counters ----
    /** Service attempts re-run after a transient failure. */
    std::uint64_t retries() const { return retries_; }
    /** Requests that missed their end-to-end deadline. */
    std::uint64_t timeouts() const { return timeouts_; }
    /** Requests abandoned with the attempt budget exhausted. */
    std::uint64_t abandoned() const { return abandoned_; }
    /** Requests shed by admission control before queueing. */
    std::uint64_t shedAdmission() const { return shed_admission_; }

    const std::string &name() const { return name_; }

    /** Forget all history. @pre idle() — resetting with work in flight
     *  would orphan completions. */
    void reset();

  private:
    /**
     * A request's jitter stream: jitter_master_ forked by the
     * request's submission index, the first time a backoff draws.
     * Forking never advances the master, so the stream does not
     * depend on when the fork happens, and a request that never
     * retries never pays for it.
     */
    struct Jitter
    {
        explicit Jitter(std::uint64_t id) : request_id(id) {}

        std::uint64_t request_id; //!< submission index
        std::optional<Rng> rng;   //!< forked on the first draw
    };

    /** Mutable per-request retry bookkeeping. */
    struct RetryState
    {
        Service service;
        Tick deadline; //!< absolute tick; 0 means none
        Jitter jitter;
    };

    struct Pending
    {
        std::shared_ptr<RetryState> state;
        IoCompletion done;
        Tick submit;
        DispatchTag tag;
        std::uint64_t seq = 0; //!< arrival order (FIFO tie-break)
    };

    /** @param queued whether @p p waited in the pending queue */
    void dispatch(EventQueue &eq, Pending p, bool queued);
    /** @param start tick the completed request began service */
    void onComplete(EventQueue &eq, Tick finish, Tick start);

    /** Admission verdict for @p tag with every slot busy. Only called
     *  when admission is enabled, so the default path never pays it. */
    bool shouldShed(const EventQueue &eq, const DispatchTag &tag) const;

    /** Index into pending_ of the request the policy dispatches next.
     *  @pre !pending_.empty() */
    std::size_t pickNext() const;

    /** What becomes of a request after one attempt. */
    struct AttemptVerdict
    {
        bool retry = false; //!< run the next attempt at `at`
        Tick at = 0;        //!< next attempt's start, or delivery tick
        IoStatus status = IoStatus::Ok; //!< final status unless retry
    };

    /**
     * The retry rules, shared by the event path and serveNow: run
     * attempt @p attempt of @p service at @p start (unless the
     * deadline already passed) and decide — deliver now, time out,
     * abandon, or retry at a backoff tick drawn from @p jitter. Bumps
     * the recovery counters.
     */
    template <typename Attempt>
    AttemptVerdict
    runAttemptAt(Tick start, unsigned attempt, Tick deadline,
                 Jitter &jitter, Attempt &service)
    {
        // The deadline can pass while the request waits for a slot or
        // sits in backoff; time it out without burning an attempt.
        if (deadline != 0 && start > deadline) {
            ++timeouts_;
            return {false, start, IoStatus::Timeout};
        }
        const IoOutcome out = service(start, attempt);
        SS_ASSERT(out.finish >= start, "attempt ", attempt,
                  " on channel '", name_, "' finished at ", out.finish,
                  " before it started at ", start);
        return judgeAttempt(out, attempt, deadline, jitter);
    }

    /** The decision half of runAttemptAt, for a finished attempt. */
    AttemptVerdict judgeAttempt(const IoOutcome &out, unsigned attempt,
                                Tick deadline, Jitter &jitter);

    /** Event-path attempt @p attempt of a request. */
    void runAttempt(EventQueue &eq, Tick start, unsigned attempt,
                    const std::shared_ptr<RetryState> &state,
                    IoCompletion complete);

    /** Backoff before attempt @p next_attempt (exponential, capped),
     *  forking @p jitter's stream if this is its first draw. */
    Tick backoffBefore(unsigned next_attempt, Jitter &jitter) const;

    std::string name_;
    unsigned depth_;
    unsigned in_flight_ = 0;
    std::deque<Pending> pending_;
    RetryPolicy retry_;
    DispatchPolicy policy_ = DispatchPolicy::Fifo;
    AdmissionControl admit_;
    /** Forked per request, at its first jittered backoff. */
    Rng jitter_master_{0x7e77151eedULL};

    std::uint64_t submitted_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t peak_outstanding_ = 0;
    std::uint64_t queued_ = 0;
    Tick total_queue_wait_ = 0;
    Tick max_queue_wait_ = 0;
    std::uint64_t retries_ = 0;
    std::uint64_t timeouts_ = 0;
    std::uint64_t abandoned_ = 0;
    std::uint64_t shed_admission_ = 0;
    Tick total_service_ = 0; //!< sum of per-dispatch service intervals
};

/**
 * Submit-and-drain helper implementing a blocking call on top of an
 * async submission: schedules @p submit at @p arrival on @p eq (reset
 * first), runs the queue dry, and returns the completion tick the
 * submission reported. A blocking caller has nowhere to report a
 * failed request, so a non-Ok completion is fatal — @p component and
 * @p request_id identify the offender in the message. Blocking calls
 * on a plain channel use StorageChannel::serveNow instead; this is for
 * async ports that reshape traffic (host/feature_cache.hh).
 * @pre eq has no pending events
 */
Tick drainOne(EventQueue &eq, Tick arrival,
              const std::function<void(EventQueue &, IoCompletion)> &submit,
              std::string_view component = "blocking adapter",
              std::uint64_t request_id = 0);

} // namespace smartsage::sim

#endif // SMARTSAGE_SIM_IO_HH
