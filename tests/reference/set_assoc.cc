#include "reference.hh"

#include "sim/logging.hh"

namespace smartsage::ref
{

SetAssocLruAos::SetAssocLruAos(std::uint64_t capacity_bytes,
                               std::uint64_t line_bytes, unsigned ways)
    : ways_(ways)
{
    SS_ASSERT(line_bytes > 0 && ways > 0, "bad cache shape");
    std::uint64_t lines = capacity_bytes / line_bytes;
    SS_ASSERT(lines >= ways, "cache smaller than one set");
    std::uint64_t want = lines / ways;
    while (sets_ * 2 <= want)
        sets_ *= 2;
    table_.assign(sets_ * ways_, Way{});
}

SetAssocLruAos::Way *
SetAssocLruAos::setBase(std::uint64_t line)
{
    std::uint64_t set =
        ((line * 0x9e3779b97f4a7c15ULL) >> 17) & (sets_ - 1);
    return table_.data() + set * ways_;
}

bool
SetAssocLruAos::access(std::uint64_t line)
{
    if (lookup(line))
        return true;
    insert(line);
    return false;
}

bool
SetAssocLruAos::lookup(std::uint64_t line)
{
    Way *base = setBase(line);
    for (unsigned w = 0; w < ways_; ++w) {
        if (base[w].valid && base[w].line == line) {
            base[w].lru = ++stamp_;
            ++hits_;
            return true;
        }
    }
    ++misses_;
    return false;
}

void
SetAssocLruAos::insert(std::uint64_t line)
{
    Way *base = setBase(line);
    Way *victim = base;
    for (unsigned w = 0; w < ways_; ++w) {
        if (!base[w].valid) {
            victim = &base[w];
            break;
        }
        if (base[w].lru < victim->lru)
            victim = &base[w];
    }
    victim->valid = true;
    victim->line = line;
    victim->lru = ++stamp_;
}

void
SetAssocLruAos::reset()
{
    table_.assign(sets_ * ways_, Way{});
    stamp_ = 0;
    hits_ = 0;
    misses_ = 0;
}

} // namespace smartsage::ref
