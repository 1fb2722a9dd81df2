#pragma once
// Byte-level primitives shared by the formats that store learned data (the
// binary snapshot, the snapshot store's entries) and by every digest.
//
// Integers are encoded little-endian whatever the host byte order, so a
// file written on one machine loads on any other. The hash is 64-bit
// FNV-1a; file headers, store keys, checkpoint cursors, the wire's
// relation_hash / campaign_digest and the random warmup streams all depend
// on its exact values.

#include <cstdint>
#include <string>
#include <string_view>

namespace seqlearn::util {

/// Append `v` to `buf` as 4 little-endian bytes.
inline void put_u32(std::string& buf, std::uint32_t v) {
    const char bytes[4] = {static_cast<char>(v), static_cast<char>(v >> 8),
                           static_cast<char>(v >> 16), static_cast<char>(v >> 24)};
    buf.append(bytes, sizeof bytes);
}

/// Append `v` to `buf` as 8 little-endian bytes.
inline void put_u64(std::string& buf, std::uint64_t v) {
    put_u32(buf, static_cast<std::uint32_t>(v));
    put_u32(buf, static_cast<std::uint32_t>(v >> 32));
}

/// The little-endian u32 at `p`.
inline std::uint32_t get_u32(const unsigned char* p) {
    return std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 | std::uint32_t{p[2]} << 16 |
           std::uint32_t{p[3]} << 24;
}

/// The little-endian u64 at `p`.
inline std::uint64_t get_u64(const unsigned char* p) {
    return get_u32(p) | std::uint64_t{get_u32(p + 4)} << 32;
}

/// 64-bit FNV-1a. mix() folds in one whole word (xor, then multiply by the
/// FNV prime); mix_bytes() folds in each byte of a string as one word.
/// `value` starts at the FNV offset basis unless a caller seeds it.
struct Fnv1a {
    std::uint64_t value = 1469598103934665603ULL;

    Fnv1a& mix(std::uint64_t x) {
        value = (value ^ x) * 1099511628211ULL;
        return *this;
    }

    Fnv1a& mix_bytes(std::string_view s) {
        for (const unsigned char c : s) mix(c);
        return *this;
    }
};

}  // namespace seqlearn::util
