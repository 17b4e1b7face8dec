#include "event_queue.hh"

#include <algorithm>

#include "logging.hh"

namespace smartsage::sim
{

void
EventQueue::push(Tick when, std::uint64_t seq, Callback cb)
{
    heap_.push_back(Event{when, seq, std::move(cb)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void
EventQueue::schedule(Tick when, Callback cb)
{
    if (when < now_)
        SS_PANIC("EventQueue::schedule: scheduling at tick ", when,
                 ", which is in the past (now = ", now_,
                 ") — events must never rewind simulated time");
    push(when, next_seq_++, std::move(cb));
}

void
EventQueue::scheduleAfter(Tick delay, Callback cb)
{
    schedule(now_ + delay, std::move(cb));
}

void
EventQueue::scheduleStream(std::size_t count, WhenOf when_of, Fire fire)
{
    const std::uint64_t first_seq = next_seq_;
    next_seq_ += count;
    if (count == 0)
        return;
    Stream &stream = streams_.emplace_back(Stream{
        this, first_seq, count, std::move(when_of), std::move(fire)});
    Tick when = stream.when_of(0);
    if (when < now_)
        SS_PANIC("EventQueue::scheduleStream: item 0 is due at tick ",
                 when, ", which is in the past (now = ", now_, ")");
    pushItem(stream, 0, when);
}

void
EventQueue::pushItem(Stream &stream, std::size_t i, Tick when)
{
    push(when, stream.first_seq + i,
         [s = &stream, i] { s->queue->fireItem(*s, i); });
}

void
EventQueue::fireItem(Stream &stream, std::size_t i)
{
    // Chain the successor first: it must be in the heap before fire(i)
    // schedules anything, exactly as if it had been pushed up front.
    if (i + 1 < stream.count) {
        Tick next = stream.when_of(i + 1);
        if (next < now_)
            SS_PANIC("EventQueue::scheduleStream: item ", i + 1,
                     " is due at tick ", next, ", before item ", i,
                     " at tick ", now_,
                     " — a stream's ticks must not decrease");
        pushItem(stream, i + 1, next);
    }
    stream.fire(i);
}

Tick
EventQueue::run()
{
    return runUntil(maxTick);
}

void
EventQueue::reset()
{
    heap_.clear();
    streams_.clear();
    now_ = 0;
    next_seq_ = 0;
}

Tick
EventQueue::runUntil(Tick limit)
{
    while (!heap_.empty() && heap_.front().when <= limit) {
        // Move out before running: the callback may schedule more
        // events, which can reallocate the heap.
        std::pop_heap(heap_.begin(), heap_.end(), Later{});
        Event ev = std::move(heap_.back());
        heap_.pop_back();
        now_ = ev.when;
        ev.cb();
    }
    return now_;
}

} // namespace smartsage::sim
