/**
 * @file
 * Unit tests for the streaming hashers (common/hash.hh): the
 * sensitivity StateHash needs as the determinism audit's fingerprint,
 * and golden digests that freeze Fnv1a, which committed traces and
 * workload seeds depend on.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.hh"

using namespace boreas;

namespace
{

/** About one pipeline step's worth of state: 4103 words. */
std::vector<double>
randomWords(size_t n = 4103)
{
    std::mt19937_64 gen(4103);
    std::uniform_real_distribution<double> u(-100.0, 100.0);
    std::vector<double> v(n);
    for (double &x : v)
        x = u(gen);
    return v;
}

uint64_t
digestOf(const std::vector<double> &v)
{
    StateHash h;
    h.add(v);
    return h.digest();
}

double
flipBit(double v, int bit)
{
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    bits ^= uint64_t{1} << bit;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

} // namespace

TEST(StateHash, EverySingleBitFlipChangesTheDigest)
{
    const std::vector<double> words = randomWords();
    const uint64_t base = digestOf(words);
    // Hash the unchanged prefix once per position and finish each
    // flipped variant from a copy of that state.
    StateHash prefix;
    for (size_t i = 0; i < words.size(); ++i) {
        for (int bit = 0; bit < 64; ++bit) {
            StateHash h = prefix;
            h.add(flipBit(words[i], bit));
            h.add(words.data() + i + 1, words.size() - i - 1);
            ASSERT_NE(h.digest(), base) << "word " << i << " bit " << bit;
        }
        prefix.add(words[i]);
    }
}

TEST(StateHash, SwappingTwoWordsChangesTheDigest)
{
    const std::vector<double> words = randomWords();
    const uint64_t base = digestOf(words);
    // Same lane (distance 4), neighbouring lanes, far apart, ends.
    const std::pair<size_t, size_t> swaps[] = {
        {0, 1}, {0, 4}, {5, 6}, {100, 2000}, {0, 4102}, {4101, 4102}};
    for (const auto &[i, j] : swaps) {
        std::vector<double> swapped = words;
        std::swap(swapped[i], swapped[j]);
        EXPECT_NE(digestOf(swapped), base) << i << "<->" << j;
    }
}

TEST(StateHash, SignedZerosDiffer)
{
    StateHash pos, neg;
    pos.add(0.0);
    neg.add(-0.0);
    EXPECT_NE(pos.digest(), neg.digest());
}

TEST(StateHash, LengthChangesTheDigest)
{
    // Trailing zero words must not vanish into the lanes.
    std::vector<uint64_t> digests;
    for (size_t n = 0; n <= 9; ++n)
        digests.push_back(digestOf(std::vector<double>(n, 0.0)));
    for (size_t a = 0; a < digests.size(); ++a) {
        for (size_t b = a + 1; b < digests.size(); ++b)
            EXPECT_NE(digests[a], digests[b]) << a << " vs " << b;
    }
}

TEST(StateHash, BulkAddMatchesWordAtATime)
{
    // The bulk path runs four lanes at once from any lane phase; it
    // must agree with the one-word path for every split of the input.
    const std::vector<double> words = randomWords(23);
    StateHash ref;
    for (double w : words)
        ref.add(w);
    for (size_t head = 0; head <= words.size(); ++head) {
        for (size_t mid = 0; head + mid <= words.size(); ++mid) {
            StateHash h;
            for (size_t i = 0; i < head; ++i)
                h.add(words[i]);
            h.add(words.data() + head, mid);
            h.add(words.data() + head + mid,
                  words.size() - head - mid);
            ASSERT_EQ(h.digest(), ref.digest()) << head << "+" << mid;
        }
    }
}

TEST(StateHash, IntegersHashAsTheirSixtyFourBitWord)
{
    StateHash a, b, c;
    a.add(7);
    b.add(int64_t{7});
    c.add(uint64_t{7});
    EXPECT_EQ(a.digest(), b.digest());
    EXPECT_EQ(a.digest(), c.digest());
}

TEST(Fnv1a, GoldenDigestsAreFrozen)
{
    // Published 64-bit FNV-1a vectors. The boreas-trace-v1 payload
    // checksum and the mix/adversarial name seeds depend on these.
    EXPECT_EQ(Fnv1a{}.digest(), 0xcbf29ce484222325ULL);
    Fnv1a a;
    a.addBytes("a", 1);
    EXPECT_EQ(a.digest(), 0xaf63dc4c8601ec8cULL);
    const std::string foobar = "foobar";
    Fnv1a f;
    f.addBytes(foobar.data(), foobar.size());
    EXPECT_EQ(f.digest(), 0x85944171f73967e8ULL);
}
