/**
 * @file
 * Streaming hashers over exact bit patterns.
 *
 * Doubles are hashed by their IEEE-754 bits, so two states hash equal
 * iff they are bitwise identical — exactly the determinism contract
 * the parallel layer promises (common/parallel.hh). Neither hasher is
 * cryptographic or portable across endianness.
 *
 * - StateHash, word at a time, is the pipeline's per-step state hash
 *   and runHash (DESIGN.md §7); it only compares runs within one
 *   build, so its digests may change between releases.
 * - Fnv1a, byte at a time, is frozen: it is the boreas-trace-v1
 *   payload checksum (committed traces depend on it) and derives
 *   mix/adversarial seeds from workload names.
 */

#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

namespace boreas
{

/** Streaming 64-bit FNV-1a. */
class Fnv1a
{
  public:
    void
    addBytes(const void *p, size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (size_t i = 0; i < n; ++i) {
            h_ ^= b[i];
            h_ *= 0x100000001b3ULL;
        }
    }

    void
    add(uint64_t v)
    {
        addBytes(&v, sizeof(v));
    }

    void
    add(int64_t v)
    {
        addBytes(&v, sizeof(v));
    }

    void
    add(int v)
    {
        add(static_cast<int64_t>(v));
    }

    /** Hash the exact IEEE-754 bit pattern (distinguishes -0.0/+0.0). */
    void
    add(double v)
    {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        add(bits);
    }

    void
    add(const std::vector<double> &v)
    {
        for (double x : v)
            add(x);
    }

    uint64_t digest() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ULL;
};

/**
 * Streaming 64-bit hash of a sequence of 64-bit words. Word i goes to
 * lane i % 4 through a multiply-xorshift round; each round is a
 * bijection of the lane state for a fixed word and of the word for a
 * fixed state, and the fold is a bijection of each lane, so changing
 * any one word always changes the digest. The four independent lanes
 * let consecutive words overlap in the CPU. digest() folds the lanes
 * in order with the word count and finishes with the splitmix64
 * finalizer.
 */
class StateHash
{
  public:
    void
    add(uint64_t v)
    {
        uint64_t &lane = lanes_[n_ & 3];
        lane = round(lane, v);
        ++n_;
    }

    void
    add(int64_t v)
    {
        add(static_cast<uint64_t>(v));
    }

    void
    add(int v)
    {
        add(static_cast<int64_t>(v));
    }

    /** Hash the exact IEEE-754 bit pattern (distinguishes -0.0/+0.0). */
    void
    add(double v)
    {
        add(bits(v));
    }

    /** Same digest as add(double) on each element in turn. */
    void
    add(const double *v, size_t n)
    {
        size_t i = 0;
        for (; i < n && (n_ & 3) != 0; ++i)
            add(v[i]);
        const size_t start = i;
        const size_t body = i + (n - i) / 4 * 4;
        uint64_t a = lanes_[0], b = lanes_[1], c = lanes_[2],
                 d = lanes_[3];
        for (; i < body; i += 4) {
            a = round(a, bits(v[i]));
            b = round(b, bits(v[i + 1]));
            c = round(c, bits(v[i + 2]));
            d = round(d, bits(v[i + 3]));
        }
        lanes_[0] = a;
        lanes_[1] = b;
        lanes_[2] = c;
        lanes_[3] = d;
        n_ += body - start;
        for (; i < n; ++i)
            add(v[i]);
    }

    void
    add(const std::vector<double> &v)
    {
        add(v.data(), v.size());
    }

    uint64_t
    digest() const
    {
        uint64_t h = n_;
        for (uint64_t lane : lanes_)
            h = (h ^ lane) * 0x9e3779b97f4a7c15ULL;
        h ^= h >> 30;
        h *= 0xbf58476d1ce4e5b9ULL;
        h ^= h >> 27;
        h *= 0x94d049bb133111ebULL;
        h ^= h >> 31;
        return h;
    }

  private:
    static uint64_t
    bits(double v)
    {
        uint64_t b;
        std::memcpy(&b, &v, sizeof(b));
        return b;
    }

    static uint64_t
    round(uint64_t lane, uint64_t word)
    {
        lane = (lane ^ word) * 0xff51afd7ed558ccdULL;
        return lane ^ (lane >> 32);
    }

    uint64_t lanes_[4] = {0x243f6a8885a308d3ULL, 0x13198a2e03707344ULL,
                          0xa4093822299f31d0ULL, 0x082efa98ec4e6c89ULL};
    uint64_t n_ = 0;
};

} // namespace boreas
