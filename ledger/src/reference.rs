//! Full-detail reference CPIs, computed once with
//! `spectral_warming::complete_detailed` and stored in
//! `references.tsv`, so timed runs never pay for them.

use spectral_uarch::MachineConfig;
use spectral_workloads::Benchmark;

const TABLE: &str = include_str!("../references.tsv");

/// The stored reference CPI of `bench` at dynamic-length target
/// `target_len` (scaled variants have their own row).
pub fn cpi(bench: &str, target_len: u64) -> Result<f64, String> {
    TABLE
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .find_map(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            (f.len() == 3 && f[0] == bench && f[1].parse() == Ok(target_len)).then(|| f[2].parse())
        })
        .ok_or_else(|| format!("no reference CPI for {bench} at length {target_len}"))?
        .map_err(|e| format!("bad reference CPI for {bench}: {e}"))
}

/// Simulate `bench` start to finish on the baseline machine and format
/// its `references.tsv` row.
pub fn compute(bench: &Benchmark, machine: &MachineConfig) -> String {
    let stats = spectral_warming::complete_detailed(machine, &bench.build());
    format!("{}\t{}\t{:.6}", bench.name(), bench.target_len(), stats.cpi())
}
