//! Property-based tests: the codecs must round-trip arbitrary inputs.

use proptest::prelude::*;
use spectral_codec::{lzss, Container, DerReader, DerWriter};

/// The original byte-at-a-time LZSS match finder, kept as the reference
/// the optimised encoder must reproduce byte for byte: compress
/// `dict ++ data`, emitting tokens for the `data` suffix only.
fn reference_compress(dict: &[u8], data: &[u8]) -> Vec<u8> {
    const WINDOW: usize = 1 << 16;
    const MIN_MATCH: usize = 3;
    const MAX_MATCH: usize = MIN_MATCH + 255;
    const HASH_BITS: u32 = 15;
    const CHAIN_DEPTH: usize = 32;
    let hash3 = |d: &[u8], i: usize| {
        let h = (d[i] as u32) | ((d[i + 1] as u32) << 8) | ((d[i + 2] as u32) << 16);
        (h.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
    };
    let buf: Vec<u8> = dict.iter().chain(data).copied().collect();
    let mut out = (data.len() as u64).to_le_bytes().to_vec();
    let mut head = vec![usize::MAX; 1 << HASH_BITS];
    let mut prev = vec![usize::MAX; buf.len().max(1)];
    let dict_index_end = dict.len().min(buf.len().saturating_sub(MIN_MATCH - 1));
    for (j, chain) in prev.iter_mut().enumerate().take(dict_index_end) {
        let h = hash3(&buf, j);
        *chain = head[h];
        head[h] = j;
    }
    let mut i = dict.len();
    let mut flag_pos = 0;
    let mut flag_bit = 8;
    while i < buf.len() {
        let (mut best_len, mut best_off) = (0, 0);
        if i + MIN_MATCH <= buf.len() {
            let h = hash3(&buf, i);
            let mut cand = head[h];
            let mut depth = 0;
            while cand != usize::MAX && depth < CHAIN_DEPTH && i - cand <= WINDOW {
                let max = (buf.len() - i).min(MAX_MATCH);
                let mut l = 0;
                while l < max && buf[cand + l] == buf[i + l] {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best_off = i - cand;
                    if l == max {
                        break;
                    }
                }
                cand = prev[cand];
                depth += 1;
            }
            prev[i] = head[h];
            head[h] = i;
        }
        if flag_bit == 8 {
            flag_pos = out.len();
            out.push(0);
            flag_bit = 0;
        }
        if best_len >= MIN_MATCH {
            out[flag_pos] |= 1 << flag_bit;
            out.extend_from_slice(&((best_off - 1) as u16).to_le_bytes());
            out.push((best_len - MIN_MATCH) as u8);
            let end = i + best_len;
            let mut j = i + 1;
            while j < end && j + MIN_MATCH <= buf.len() {
                let h = hash3(&buf, j);
                prev[j] = head[h];
                head[h] = j;
                j += 1;
            }
            i = end;
        } else {
            out.push(buf[i]);
            i += 1;
        }
        flag_bit += 1;
    }
    out
}

/// Assert both public encoders emit exactly the reference bytes, and
/// that the dictionary stream decodes back to `data`.
fn assert_matches_reference(dict: &[u8], data: &[u8]) {
    let mut scratch = lzss::CompressScratch::new();
    assert_eq!(lzss::compress_with(&mut scratch, data), reference_compress(&[], data));
    let primed = lzss::compress_with_dict(&mut scratch, dict, data);
    assert_eq!(primed, reference_compress(dict, data));
    let mut out = Vec::new();
    lzss::decompress_into_with_dict(dict, &primed, &mut out).unwrap();
    assert_eq!(out, data);
}

/// `len` bytes of a pseudo-random block that repeats with period
/// `period`, with a pseudo-random byte flipped every `flip_every` bytes.
/// Random bytes keep the hash chains short, so the candidate exactly
/// one period back is always examined: with `period` near 64 KiB,
/// matches sit right at the window limit.
fn long_periodic(seed: u64, period: usize, len: usize, flip_every: usize) -> Vec<u8> {
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x as u8
    };
    let block: Vec<u8> = (0..period).map(|_| next()).collect();
    let mut data: Vec<u8> = block.iter().copied().cycle().take(len).collect();
    for k in (0..len).step_by(flip_every) {
        data[k] = next();
    }
    data
}

proptest! {
    #[test]
    fn lzss_roundtrips_arbitrary_bytes(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let c = lzss::compress(&data);
        prop_assert_eq!(lzss::decompress(&c).unwrap(), data);
    }

    #[test]
    fn lzss_roundtrips_repetitive_bytes(
        unit in proptest::collection::vec(any::<u8>(), 1..16),
        reps in 1usize..512,
    ) {
        let data: Vec<u8> = unit.iter().copied().cycle().take(unit.len() * reps).collect();
        let c = lzss::compress(&data);
        prop_assert_eq!(lzss::decompress(&c).unwrap(), data);
    }

    #[test]
    fn encoders_match_the_reference_on_arbitrary_bytes(
        dict in proptest::collection::vec(any::<u8>(), 0..2048),
        data in proptest::collection::vec(any::<u8>(), 0..4096),
    ) {
        assert_matches_reference(&dict, &data);
    }

    #[test]
    fn encoders_match_the_reference_on_repetitive_bytes(
        unit in proptest::collection::vec(0u8..4, 1..24),
        reps in 1usize..600,
        dict_len in 0usize..1024,
    ) {
        let data: Vec<u8> = unit.iter().copied().cycle().take(unit.len() * reps).collect();
        let dict: Vec<u8> = data.iter().rev().copied().take(dict_len).collect();
        assert_matches_reference(&dict, &data);
    }

    #[test]
    fn der_u64_roundtrips(v in any::<u64>()) {
        let mut w = DerWriter::new();
        w.u64(v);
        let data = w.finish();
        prop_assert_eq!(DerReader::new(&data).u64().unwrap(), v);
    }

    #[test]
    fn der_i64_roundtrips(v in any::<i64>()) {
        let mut w = DerWriter::new();
        w.i64(v);
        let data = w.finish();
        prop_assert_eq!(DerReader::new(&data).i64().unwrap(), v);
    }

    #[test]
    fn der_mixed_sequence_roundtrips(
        a in any::<u64>(),
        b in any::<i64>(),
        s in "[a-zA-Z0-9 ]{0,64}",
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
        flag in any::<bool>(),
    ) {
        let mut w = DerWriter::new();
        w.seq(|w| {
            w.u64(a);
            w.i64(b);
            w.utf8(&s);
            w.bytes(&bytes);
            w.bool(flag);
        });
        let data = w.finish();
        let mut r = DerReader::new(&data);
        let mut q = r.seq().unwrap();
        prop_assert_eq!(q.u64().unwrap(), a);
        prop_assert_eq!(q.i64().unwrap(), b);
        prop_assert_eq!(q.utf8().unwrap(), s.as_str());
        prop_assert_eq!(q.bytes().unwrap(), &bytes[..]);
        prop_assert_eq!(q.bool().unwrap(), flag);
        prop_assert!(q.is_empty());
    }

    #[test]
    fn der_u64_array_roundtrips(words in proptest::collection::vec(any::<u64>(), 0..512)) {
        let mut w = DerWriter::new();
        w.u64_array(&words);
        let data = w.finish();
        prop_assert_eq!(DerReader::new(&data).u64_array().unwrap(), words);
    }

    #[test]
    fn container_roundtrips(
        recs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..512), 0..16),
    ) {
        let bytes = Container::encode(recs.clone());
        prop_assert_eq!(Container::decode(&bytes).unwrap().records, recs);
    }

    #[test]
    fn decompress_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = lzss::decompress(&data); // must return, never panic
    }

    #[test]
    fn compress_with_matches_compress(
        a in proptest::collection::vec(any::<u8>(), 0..4096),
        b in proptest::collection::vec(any::<u8>(), 0..4096),
    ) {
        // One scratch reused across differently-sized inputs must be
        // byte-identical to fresh-allocation compression every time.
        let mut scratch = lzss::CompressScratch::new();
        prop_assert_eq!(lzss::compress_with(&mut scratch, &a), lzss::compress(&a));
        prop_assert_eq!(lzss::compress_with(&mut scratch, &b), lzss::compress(&b));
        prop_assert_eq!(lzss::compress_with(&mut scratch, &a), lzss::compress(&a));
    }

    #[test]
    fn decompress_into_roundtrips_with_reused_buffer(
        a in proptest::collection::vec(any::<u8>(), 0..4096),
        b in proptest::collection::vec(any::<u8>(), 0..4096),
    ) {
        // A dirty reused output buffer must not leak into the result.
        let mut out = Vec::new();
        lzss::decompress_into(&lzss::compress(&a), &mut out).unwrap();
        prop_assert_eq!(&out, &a);
        lzss::decompress_into(&lzss::compress(&b), &mut out).unwrap();
        prop_assert_eq!(&out, &b);
    }

    #[test]
    fn decompress_into_agrees_with_decompress_on_garbage(
        data in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let mut out = Vec::new();
        match (lzss::decompress(&data), lzss::decompress_into(&data, &mut out)) {
            (Ok(v), Ok(())) => prop_assert_eq!(v, out),
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
            (a, b) => prop_assert!(false, "divergent outcomes: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn decompress_into_agrees_with_decompress_on_truncations(
        data in proptest::collection::vec(any::<u8>(), 1..2048),
        cut in any::<usize>(),
    ) {
        // Every proper prefix of a valid stream must produce the same
        // outcome (usually Truncated) from both decompressors.
        let c = lzss::compress(&data);
        let prefix = &c[..cut % c.len()];
        let mut out = Vec::new();
        match (lzss::decompress(prefix), lzss::decompress_into(prefix, &mut out)) {
            (Ok(v), Ok(())) => prop_assert_eq!(v, out),
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
            (a, b) => prop_assert!(false, "divergent outcomes: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn der_reader_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut r = DerReader::new(&data);
        let _ = r.u64();
        let _ = r.bytes();
        let _ = r.seq();
        let _ = r.bool();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn encoders_match_the_reference_beyond_the_window(
        seed in any::<u64>(),
        period in (1usize << 16) - 2..(1usize << 16) + 3,
        extra in 1usize..4096,
        flip_every in 97usize..4000,
        dict_len in 0usize..4096,
    ) {
        // The dictionary is a prefix of the same block, so matches also
        // span the dictionary/payload boundary.
        let data = long_periodic(seed, period, period + extra, flip_every);
        let dict = long_periodic(seed, period, dict_len, flip_every);
        assert_matches_reference(&dict, &data);
    }
}
