#include "reference.hh"

namespace smartsage::ref
{

std::uint64_t
nextBoundedTwoDivision(sim::Rng &rng, std::uint64_t bound)
{
    std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
        std::uint64_t r = rng.next();
        if (r >= threshold)
            return r % bound;
    }
}

} // namespace smartsage::ref
