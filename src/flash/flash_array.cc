#include "flash_array.hh"

#include "sim/logging.hh"

namespace smartsage::flash
{

FlashArray::FlashArray(const FlashConfig &config) : config_(config)
{
    SS_ASSERT(config.channels > 0 && config.dies_per_channel > 0,
              "flash geometry must be non-empty");
    dies_.reserve(config.totalDies());
    for (unsigned i = 0; i < config.totalDies(); ++i)
        dies_.emplace_back("die" + std::to_string(i));
    channels_.reserve(config.channels);
    for (unsigned i = 0; i < config.channels; ++i)
        channels_.emplace_back("ch" + std::to_string(i));
    if (config.fault.injectsEcc())
        ecc_ = std::make_unique<sim::FaultInjector>(config.fault, "flash");
}

sim::Tick
FlashArray::readPage(const PageAddress &addr, sim::Tick arrival)
{
    SS_ASSERT(addr.channel < config_.channels, "channel ", addr.channel,
              " out of range");
    SS_ASSERT(addr.die < config_.dies_per_channel, "die ", addr.die,
              " out of range");

    // tR occupies the die; the ONFI transfer then occupies the channel.
    auto sensed = dies_[dieIndex(addr)].request(arrival,
                                                config_.read_latency);
    // An ECC failure re-senses with a longer, more careful read: extra
    // die occupancy once, then the transfer proceeds normally — the
    // retried sense always succeeds (a real drive escalates read-retry
    // voltage levels until it does).
    if (ecc_ && ecc_->drawEccRetry()) {
        ++ecc_retries_;
        sensed = dies_[dieIndex(addr)].request(sensed.finish,
                                               config_.fault.ecc_retry);
    }
    auto moved = channels_[addr.channel].request(
        sensed.finish, config_.pageTransferTime());
    ++pages_read_;
    return moved.finish;
}

double
FlashArray::dieUtilization(sim::Tick horizon) const
{
    if (horizon == 0 || dies_.empty())
        return 0.0;
    sim::Tick busy = 0;
    for (const auto &d : dies_)
        busy += d.busyTime();
    return static_cast<double>(busy) /
           (static_cast<double>(horizon) * dies_.size());
}

double
FlashArray::channelUtilization(sim::Tick horizon) const
{
    if (horizon == 0 || channels_.empty())
        return 0.0;
    sim::Tick busy = 0;
    for (const auto &c : channels_)
        busy += c.busyTime();
    return static_cast<double>(busy) /
           (static_cast<double>(horizon) * channels_.size());
}

void
FlashArray::reset()
{
    for (auto &d : dies_)
        d.reset();
    for (auto &c : channels_)
        c.reset();
    if (ecc_)
        ecc_->reset();
    pages_read_ = 0;
    ecc_retries_ = 0;
}

} // namespace smartsage::flash
