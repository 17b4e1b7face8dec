/**
 * @file
 * Minimal discrete-event simulation kernel.
 *
 * Components schedule callbacks at absolute ticks; run() drains events in
 * time order (FIFO among same-tick events). Every event carries a
 * (when, seq) key, seq being a counter bumped per scheduled event, and
 * the heap pops the smallest key; run() moves each event out of the
 * heap, so a callback's captures are never copied.
 *
 * A long arrival sequence known up front (the serving front end's
 * request arrivals) enters through scheduleStream() instead of one
 * schedule() per item: the stream reserves one seq per item at the call
 * but keeps only its next item in the heap, chaining item i + 1 when
 * item i pops. Each item keeps the (when, seq) key it would have had if
 * every item had been scheduled at the call, so the run order is the
 * same, while the heap holds in-flight events only.
 *
 * The async request engine (io.hh) and the serving front end
 * (core/serving.hh) are the clients; storage-stack timing itself uses
 * the lighter busy-until Resource model (resource.hh) instead of
 * per-request events, which keeps large sweeps fast.
 */

#ifndef SMARTSAGE_SIM_EVENT_QUEUE_HH
#define SMARTSAGE_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "types.hh"

namespace smartsage::sim
{

/** Time-ordered event queue with a monotonic simulated clock. */
class EventQueue
{
  public:
    using Callback = std::function<void()>;
    /** Tick of a stream's item i. */
    using WhenOf = std::function<Tick(std::size_t)>;
    /** Handler of a stream's item i, called at its tick. */
    using Fire = std::function<void(std::size_t)>;

    EventQueue() = default;
    /** Not copyable or movable: streams and their heap entries hold the
     *  queue's address. */
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Number of heap entries. A live stream counts once (its next
     * item), not once per item it has yet to fire.
     */
    std::size_t pending() const { return heap_.size(); }

    /**
     * Schedule @p cb at absolute time @p when.
     * @pre when >= now() — scheduling in the past is a simulator bug
     * and panics with the offending ticks (enforced, not advisory).
     */
    void schedule(Tick when, Callback cb);

    /** Schedule @p cb @p delay ticks from now. */
    void scheduleAfter(Tick delay, Callback cb);

    /**
     * Schedule @p count items: item i fires `fire(i)` at tick
     * `when_of(i)`. Reserves the next @p count sequence numbers now, so
     * the items run exactly where @p count schedule() calls made here
     * would have run them, but only the next item sits in the heap:
     * when item i pops, item i + 1 is pushed before `fire(i)` runs.
     * The stream's record (with @p when_of and @p fire) stays in the
     * queue until reset().
     * @pre when_of(0) >= now() and when_of is non-decreasing in i; a
     * violation panics with the offending ticks.
     */
    void scheduleStream(std::size_t count, WhenOf when_of, Fire fire);

    /** Run until the queue is empty. @return final simulated time. */
    Tick run();

    /** Run until the queue is empty or time would exceed @p limit. */
    Tick runUntil(Tick limit);

    /**
     * Rewind the clock to 0 and drop any pending events and streams.
     * The submit-and-drain adapter (sim::drainOne, sim/io.hh) reuses
     * one queue across independent drains whose arrival ticks are not
     * monotonic.
     */
    void reset();

  private:
    struct Event
    {
        Tick when;
        std::uint64_t seq;
        Callback cb;
    };

    struct Later
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    struct Stream
    {
        EventQueue *queue;
        std::uint64_t first_seq;
        std::size_t count;
        WhenOf when_of;
        Fire fire;
    };

    void push(Tick when, std::uint64_t seq, Callback cb);
    /** Push @p stream's item @p i; the entry captures only the stream
     *  and the index, so it fits std::function's in-place buffer. */
    void pushItem(Stream &stream, std::size_t i, Tick when);
    void fireItem(Stream &stream, std::size_t i);

    /** Binary min-heap on (when, seq) via std::push_heap/pop_heap. */
    std::vector<Event> heap_;
    /** Deque: fire() may add a stream without moving the live ones. */
    std::deque<Stream> streams_;
    Tick now_ = 0;
    std::uint64_t next_seq_ = 0;
};

} // namespace smartsage::sim

#endif // SMARTSAGE_SIM_EVENT_QUEUE_HH
