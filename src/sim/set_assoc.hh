/**
 * @file
 * Generic set-associative LRU cache over 64-bit keys.
 *
 * Shared by the host LLC model, the OS page-cache model, the
 * direct-I/O scratchpad and the SSD's DRAM page buffer: all four are
 * "capacity / line / ways + LRU" structures that only differ in line
 * size and hit/miss costs, which the wrappers supply.
 */

#ifndef SMARTSAGE_SIM_SET_ASSOC_HH
#define SMARTSAGE_SIM_SET_ASSOC_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "logging.hh"

namespace smartsage::sim
{

/** Set-associative LRU directory keyed by line number. */
class SetAssocLru
{
  public:
    /**
     * @param capacity_bytes total capacity
     * @param line_bytes     line (block/page) size
     * @param ways           associativity; set count is rounded down to
     *                       a power of two
     */
    SetAssocLru(std::uint64_t capacity_bytes, std::uint64_t line_bytes,
                unsigned ways)
        : line_bytes_(line_bytes), ways_(ways)
    {
        SS_ASSERT(line_bytes > 0 && ways > 0, "bad cache shape");
        if (std::has_single_bit(line_bytes))
            line_shift_ = static_cast<unsigned>(std::countr_zero(line_bytes));
        std::uint64_t lines = capacity_bytes / line_bytes;
        SS_ASSERT(lines >= ways, "cache smaller than one set");
        std::uint64_t want = lines / ways;
        sets_ = 1;
        while (sets_ * 2 <= want)
            sets_ *= 2;
        tags_.assign(sets_ * ways_, kEmpty);
        stamps_.assign(sets_ * ways_, 0);
    }

    /** Line number covering byte address @p addr. */
    std::uint64_t
    lineOf(std::uint64_t addr) const
    {
        // A shift for the usual power-of-two lines; the branch always
        // goes the same way for one cache.
        return line_shift_ != kNoShift ? addr >> line_shift_
                                       : addr / line_bytes_;
    }

    /** Touch line @p line; install on miss. @return true on hit. */
    bool
    access(std::uint64_t line)
    {
        // A repeat of the line touched last hits its set's newest way.
        // Re-stamping it would leave every set's stamp order as it is,
        // so the repeat skips the probe: replay touches one page or
        // block many times in a row (a node's sampled entries).
        if (has_last_ && line == last_) {
            ++hits_;
            return true;
        }
        if (lookup(line))
            return true;
        insert(line);
        // The line was absent, so this is its only copy: repeats of it
        // may take the shortcut.
        last_ = line;
        has_last_ = true;
        return false;
    }

    /** Probe + recency update without filling. @return true on hit. */
    bool
    lookup(std::uint64_t line)
    {
        const std::size_t base = setBase(line);
        for (std::size_t w = base; w < base + ways_; ++w) {
            if (tags_[w] == line && stamps_[w] != 0) {
                stamps_[w] = ++stamp_;
                last_ = line;
                has_last_ = true;
                ++hits_;
                return true;
            }
        }
        ++misses_;
        return false;
    }

    /** Fill line @p line, evicting the set's LRU way if full. */
    void
    insert(std::uint64_t line)
    {
        const std::size_t victim = victimIn(setBase(line));
        tags_[victim] = line;
        stamps_[victim] = ++stamp_;
        // A bare insert may duplicate a resident line, and a repeat
        // touch must re-stamp the first copy, so no shortcut after it.
        has_last_ = false;
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

    double
    hitRate() const
    {
        std::uint64_t total = hits_ + misses_;
        return total ? static_cast<double>(hits_) / total : 0.0;
    }

    double missRate() const { return 1.0 - hitRate(); }

    std::uint64_t lineBytes() const { return line_bytes_; }
    std::uint64_t numSets() const { return sets_; }
    unsigned ways() const { return ways_; }

    /** Drop contents and counters. */
    void
    reset()
    {
        tags_.assign(sets_ * ways_, kEmpty);
        stamps_.assign(sets_ * ways_, 0);
        stamp_ = 0;
        has_last_ = false;
        hits_ = 0;
        misses_ = 0;
    }

  private:
    /** Tag of an empty way. Emptiness is decided by the stamp; a
     *  lookup of this line number still misses an empty way. */
    static constexpr std::uint64_t kEmpty = ~std::uint64_t(0);

    /** line_shift_ of a line size that is not a power of two. */
    static constexpr unsigned kNoShift = ~0u;

    std::uint64_t line_bytes_;
    /** log2(line_bytes_), or kNoShift: lineOf divides then. */
    unsigned line_shift_ = kNoShift;
    unsigned ways_;
    std::uint64_t sets_ = 1;
    // Tags and stamps live in separate arrays so a set's tags share
    // host cache lines: a 16-way tag probe reads two lines, not six.
    std::vector<std::uint64_t> tags_;   //!< line per way; kEmpty if empty
    std::vector<std::uint64_t> stamps_; //!< last touch; 0 if empty
    std::uint64_t stamp_ = 0;
    /** The line the newest stamp went to, as the first copy in its set
     *  (so resident). Valid only while has_last_. */
    std::uint64_t last_ = 0;
    bool has_last_ = false;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;

    /**
     * Index of the way to fill in the set starting at @p base: the
     * first minimum stamp. Empty ways stamp 0 and valid stamps are
     * unique and >= 1, so that is the first empty way, else the LRU
     * way. Branch-free: which way wins is unpredictable, and a branch
     * per way costs more than the scan.
     */
    std::size_t
    victimIn(std::size_t base) const
    {
        std::size_t victim = base;
        std::uint64_t oldest = stamps_[base];
        for (std::size_t w = base + 1; w < base + ways_; ++w) {
            const bool older = stamps_[w] < oldest;
            oldest = older ? stamps_[w] : oldest;
            victim = older ? w : victim;
        }
        return victim;
    }

    /** Index of the first way of @p line's set. */
    std::size_t
    setBase(std::uint64_t line) const
    {
        std::uint64_t set =
            ((line * 0x9e3779b97f4a7c15ULL) >> 17) & (sets_ - 1);
        return static_cast<std::size_t>(set * ways_);
    }
};

} // namespace smartsage::sim

#endif // SMARTSAGE_SIM_SET_ASSOC_HH
