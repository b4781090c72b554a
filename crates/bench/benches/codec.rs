//! Codec throughput: the paper claims ASN.1 DER + gzip "incur minimal
//! storage and processing time overhead" (§3). These benches quantify
//! our DER subset and LZSS stand-in on a real live-point payload, plain
//! and against a v2 block's shared dictionary.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use spectral_bench::{fixture_benchmark, fixture_library};
use spectral_codec::{lzss, DerReader, DerWriter};
use spectral_core::V2WriteOptions;

/// The shared dictionary `save_v2` builds for one block: prefixes of
/// `DICT_SAMPLES` evenly spaced records, each at most
/// `DICT_CAP / DICT_SAMPLES` bytes.
fn block_dictionary(block: &[Vec<u8>]) -> Vec<u8> {
    let samples = V2WriteOptions::DICT_SAMPLES.min(block.len());
    let per = V2WriteOptions::DICT_CAP / samples;
    (0..samples)
        .flat_map(|k| {
            let der = &block[k * block.len() / samples];
            der[..per.min(der.len())].iter().copied()
        })
        .collect()
}

fn bench_codec(c: &mut Criterion) {
    let program = fixture_benchmark().build();
    let library = fixture_library(&program, 6);
    // Reconstruct the raw DER for a representative point.
    let lp = library.get(0).expect("decode");
    let der = lp.to_der();
    let compressed = lzss::compress(&der);

    let mut group = c.benchmark_group("codec");
    group.sample_size(20);
    group.throughput(Throughput::Bytes(der.len() as u64));
    group.bench_function("lzss_compress_livepoint", |b| {
        b.iter(|| lzss::compress(&der));
    });
    group.bench_function("lzss_decompress_livepoint", |b| {
        b.iter(|| lzss::decompress(&compressed).expect("roundtrip"));
    });

    // One full 64-record block of gcc-like points; the timed record is
    // one the dictionary did not sample, like 60 of every 64 records in
    // a saved library.
    let block_points = V2WriteOptions::default().block_points;
    let gcc = spectral_workloads::by_name("gcc-like").expect("suite benchmark").build();
    let block_library = fixture_library(&gcc, block_points as u64);
    let block: Vec<Vec<u8>> =
        (0..block_points).map(|i| block_library.get(i).expect("decode").to_der()).collect();
    let dict = block_dictionary(&block);
    let record = &block[1];
    let mut scratch = lzss::CompressScratch::new();
    let primed = lzss::compress_with_dict(&mut scratch, &dict, record);
    let mut out = Vec::new();
    group.throughput(Throughput::Bytes(record.len() as u64));
    group.bench_function("lzss_compress_with_dict_livepoint", |b| {
        b.iter(|| lzss::compress_with_dict(&mut scratch, &dict, record));
    });
    group.bench_function("lzss_decompress_with_dict_livepoint", |b| {
        b.iter(|| lzss::decompress_into_with_dict(&dict, &primed, &mut out).expect("roundtrip"));
    });
    group.finish();

    let mut g2 = c.benchmark_group("der");
    g2.sample_size(30);
    let words: Vec<u64> = (0..4096u64).map(|i| i.wrapping_mul(0x9E3779B9)).collect();
    g2.bench_function("der_encode_4k_words", |b| {
        b.iter(|| {
            let mut w = DerWriter::new();
            w.seq(|w| {
                w.u64_array(&words);
            });
            w.finish()
        });
    });
    let mut w = DerWriter::new();
    w.seq(|w| {
        w.u64_array(&words);
    });
    let encoded = w.finish();
    g2.bench_function("der_decode_4k_words", |b| {
        b.iter(|| {
            let mut r = DerReader::new(&encoded);
            r.seq().expect("seq").u64_array().expect("array")
        });
    });
    g2.bench_function("livepoint_to_der", |b| {
        b.iter(|| lp.to_der());
    });
    g2.bench_function("livepoint_from_der", |b| {
        b.iter(|| spectral_core::LivePoint::from_der(&der).expect("decode"));
    });
    g2.finish();
}

criterion_group!(benches, bench_codec);
criterion_main!(benches);
