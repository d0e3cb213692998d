#include "util/varint.hh"

namespace gdiff {
namespace codec {

bool
decodeDeltaVarint(const uint8_t *p, size_t bytes, uint64_t *v,
                  uint32_t n)
{
    const uint8_t *end = p + bytes;
    uint64_t prev = 0;
    for (uint32_t i = 0; i < n; ++i) {
        uint64_t zz = 0;
        size_t used = getVarint(p, end, &zz);
        if (used == 0)
            return false;
        p += used;
        prev += static_cast<uint64_t>(zigzagDecode(zz));
        v[i] = prev;
    }
    return p == end;
}

bool
decodeDeltaRle(const uint8_t *p, size_t bytes, uint64_t *v,
               uint32_t n)
{
    const uint8_t *end = p + bytes;
    uint64_t prev = 0;
    uint32_t i = 0;
    while (i < n) {
        uint64_t zz = 0, run = 0;
        size_t used = getVarint(p, end, &zz);
        if (used == 0)
            return false;
        p += used;
        used = getVarint(p, end, &run);
        if (used == 0)
            return false;
        p += used;
        // A run that is zero or overshoots the column is corrupt; the
        // check also bounds the loop so hostile input cannot spin.
        if (run == 0 || run > n - i)
            return false;
        uint64_t delta = static_cast<uint64_t>(zigzagDecode(zz));
        for (uint64_t k = 0; k < run; ++k) {
            prev += delta;
            v[i++] = prev;
        }
    }
    return p == end;
}

bool
decodeByteRle(const uint8_t *p, size_t bytes, uint8_t *v, uint32_t n)
{
    const uint8_t *end = p + bytes;
    uint32_t i = 0;
    while (i < n) {
        if (p >= end)
            return false;
        uint8_t byte = *p++;
        uint64_t run = 0;
        size_t used = getVarint(p, end, &run);
        if (used == 0)
            return false;
        p += used;
        if (run == 0 || run > n - i)
            return false;
        for (uint64_t k = 0; k < run; ++k)
            v[i++] = byte;
    }
    return p == end;
}

} // namespace codec
} // namespace gdiff
