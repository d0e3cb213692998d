/**
 * @file
 * The "bzip2" kernel: block-sorting-compressor-style byte frequency
 * counting over a buffer with run-structured contents.
 *
 * The input alphabet is small (16 symbols) and runs are long and
 * geometric (bzip2 inputs are RLE-friendly by design), so the data
 * loads show strong last-value/stride-0
 * locality; the address arithmetic is strided; and several producers
 * duplicate or offset a just-produced value, giving gdiff a small but
 * consistent edge over the local predictors — matching bzip2's
 * profile in the paper's Fig. 8 (high for everyone, gdiff slightly
 * ahead).
 */

#include "workload/kernels.hh"

#include <vector>

#include "isa/program_builder.hh"
#include "util/random.hh"

namespace gdiff {
namespace workload {
namespace kernels {

using namespace isa;
using namespace isa::reg;

namespace {

constexpr int64_t bufWords = 65536; // 512 KiB streaming buffer
constexpr uint64_t bufBase = dataBase;
constexpr uint64_t bufEnd = bufBase + bufWords * 8;
constexpr uint64_t freqBase = bufEnd;

} // anonymous namespace

Workload
makeBzip2(uint64_t seed)
{
    Workload w;
    Xorshift64Star rng(seed * 0x9e3779b97f4a7c15ull + 3);

    // Phrase-structured symbol stream: the input is built from a
    // 48-entry phrase book (text repeats its n-grams), each phrase
    // containing internal runs, with occasional random splices. Runs
    // feed last-value/stride locality; repeating phrases feed
    // context (FCM/DFCM) locality — the mix real compressors see.
    std::vector<std::vector<int64_t>> book(48);
    for (auto &phrase : book) {
        int64_t sym = static_cast<int64_t>(rng.below(16));
        for (int k = 0; k < 48; ++k) {
            // long runs: bzip2's inputs are RLE-friendly by design
            if (!rng.chancePercent(97))
                sym = static_cast<int64_t>(rng.below(16));
            phrase.push_back(sym);
        }
    }
    int64_t i = 0;
    while (i < bufWords) {
        if (rng.chancePercent(10)) {
            for (int k = 0; k < 3 && i < bufWords; ++k, ++i) {
                w.memoryImage.emplace_back(
                    bufBase + static_cast<uint64_t>(i) * 8,
                    static_cast<int64_t>(rng.below(16)));
            }
        } else {
            const auto &phrase = book[rng.below(book.size())];
            for (size_t k = 0; k < phrase.size() && i < bufWords;
                 ++k, ++i) {
                w.memoryImage.emplace_back(
                    bufBase + static_cast<uint64_t>(i) * 8, phrase[k]);
            }
        }
    }

    ProgramBuilder b("bzip2");
    Label top = b.newLabel();

    // The body is unrolled four ways (as a compiler would unroll a
    // byte-counting loop), so only one or two instances of each
    // static instruction are in flight at a time.
    b.bind(top);
    uint32_t loop_head = b.here();
    uint32_t symbol_load = 0, backref_load = 0;
    for (int64_t u = 0; u < 4; ++u) {
        if (u == 0)
            symbol_load = b.here();
        b.load(t1, s1, 8 * u);  // B1: symbol (runs: stride-0)
        b.andi(t2, t1, 255);    // B2: duplicates B1 (alphabet < 256)
        b.slli(t3, t2, 3);      // B3: scaled index (run-stable only)
        b.add(t4, s2, t3);      // B4: counter addr; diff == freqBase
        b.load(t5, t4, 0);      // B5: running count
        b.addi(t6, t5, 1);      // B6: incremented count
        b.store(t6, t4, 0);
        // Context back-reference: the symbol four positions back
        // (compressors compare against recent context) — a diff-0
        // global stride one unrolled block away.
        if (u == 0)
            backref_load = b.here();
        b.load(t7, s1, 8 * u - 32); // B7
        b.addi(t8, t7, 4);          // B8: chain
    }
    b.addi(s1, s1, 32);        // B9: buffer advance (stride 32)
    b.blt(s1, a2, top);        //    loop branch: taken until wrap
    b.addi(s1, a1, 0);         //    rare: reset the stream pointer
    b.jump(top);

    w.program = b.build();

    w.initialRegs[s1] = static_cast<int64_t>(bufBase);
    w.initialRegs[s2] = static_cast<int64_t>(freqBase);
    w.initialRegs[a1] = static_cast<int64_t>(bufBase);
    w.initialRegs[a2] = static_cast<int64_t>(bufEnd);

    w.markers.emplace_back("loop_head", indexToPc(loop_head));
    w.markers.emplace_back("symbol_load", indexToPc(symbol_load));
    w.markers.emplace_back("backref_load", indexToPc(backref_load));
    return w;
}

} // namespace kernels
} // namespace workload
} // namespace gdiff
