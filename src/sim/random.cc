#include "random.hh"

namespace smartsage::sim
{

namespace
{

std::uint64_t
splitMix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed) : seed_(seed)
{
    std::uint64_t sm = seed;
    for (auto &s : s_)
        s = splitMix64(sm);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;

    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);

    return result;
}

std::uint64_t
Rng::nextBounded(std::uint64_t bound)
{
    // Rejection to remove modulo bias: draws below (2^64 mod bound) are
    // redrawn. That threshold is below bound, so a draw >= bound is
    // accepted without computing it, and nearly every call pays one
    // division instead of two.
    for (;;) {
        std::uint64_t r = next();
        if (r >= bound || r >= (0 - bound) % bound)
            return r % bound;
    }
}

double
Rng::nextDouble()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool
Rng::nextBool(double p)
{
    return nextDouble() < p;
}

RngState
Rng::save() const
{
    RngState state;
    for (int i = 0; i < 4; ++i)
        state.s[i] = s_[i];
    state.seed = seed_;
    return state;
}

void
Rng::restore(const RngState &state)
{
    for (int i = 0; i < 4; ++i)
        s_[i] = state.s[i];
    seed_ = state.seed;
}

Rng
Rng::fork(std::uint64_t stream_id) const
{
    // Mix the stream id into the seed through SplitMix64 so streams for
    // ids 0, 1, 2, ... are decorrelated.
    std::uint64_t mix = seed_ ^ (0x9e3779b97f4a7c15ULL * (stream_id + 1));
    return Rng(mix);
}

} // namespace smartsage::sim
