//! `convert` — inspect and convert on-disk live-point libraries
//! between container formats.
//!
//! * `convert --library in.splp` — print the library header (format
//!   version, benchmark, scope, point/block counts, compressed size)
//!   without touching a single record: a metadata-only
//!   [`LivePointLibrary::open_header`] read.
//! * `convert --library in.splp --save-library out.splp
//!   [--lib-format 1|2] [--block N] [--dict on|off]` — rewrite the
//!   library in the requested container (paged v2 by default) and
//!   verify the copy decodes to the same content.
//!
//! Conversion preserves record order and point content; v1 → v2 → v1
//! is byte-identical (the round-trip golden in the core tests).

use spectral_core::LivePointLibrary;
use spectral_experiments::{
    fmt_bytes, run_main, stamp_library, Args, ExpError, IoContext, Report, Timer,
};

fn main() -> std::process::ExitCode {
    run_main("convert", run)
}

fn run(args: Args) -> Result<(), ExpError> {
    args.reject_recovery_flags("convert")?;
    let Some(input) = &args.library else {
        return Err(ExpError::msg("convert needs --library PATH (and optionally --save-library)"));
    };
    let mut report = Report::new("convert");

    // Metadata-only open: header + footer for v2, a frame walk (no
    // decompression) for v1.
    let t = Timer::start();
    let header = LivePointLibrary::open_header(input).context("cannot read library", input)?;
    report.line(format!("{}:", input.display()));
    report.line(format!(
        "  format v{}  benchmark={}  scope={:?}",
        header.format_version, header.benchmark, header.scope
    ));
    report.line(format!(
        "  {} points in {} blocks, {} compressed ({} on disk), header read in {}",
        header.points,
        header.blocks,
        fmt_bytes(header.total_compressed_bytes),
        fmt_bytes(header.file_bytes),
        spectral_experiments::fmt_secs(t.secs()),
    ));
    if let Some(hash) = header.content_hash {
        report.line(format!("  content hash crc32:{hash:08x}"));
    }

    let Some(output) = &args.save_library else {
        report.finish(&args)?;
        return Ok(());
    };

    let mut manifest = args.manifest("convert", &header.benchmark);
    let t = Timer::start();
    let library = LivePointLibrary::open(input).context("cannot open library", input)?;
    manifest.phase("open_library", t.secs());

    let t = Timer::start();
    let target = args.write_library(&library, output)?;
    manifest.phase("write_library", t.secs());

    // Re-open the copy and verify it carries the same points. The
    // stored content hash moves with the representation (dictionary
    // compression changes the stored bodies), so compare the canonical
    // v1-semantics stream instead — it decodes every record of both
    // containers and is byte-identical iff the points are.
    let converted = LivePointLibrary::open(output).context("cannot re-open converted", output)?;
    if converted.len() != library.len() || converted.to_bytes()? != library.to_bytes()? {
        return Err(ExpError::msg(format!(
            "conversion verification failed: {} points (hash crc32:{:08x}) did not survive as \
             {} points (hash crc32:{:08x})",
            library.len(),
            library.content_hash(),
            converted.len(),
            converted.content_hash(),
        )));
    }
    let out_header = LivePointLibrary::open_header(output).context("cannot read", output)?;
    report.line(format!(
        "wrote {} as format v{}: {} compressed ({} on disk), verified {} points intact",
        output.display(),
        target,
        fmt_bytes(out_header.total_compressed_bytes),
        fmt_bytes(out_header.file_bytes),
        converted.len(),
    ));

    stamp_library(&mut manifest, &converted, target);
    manifest.points_processed = Some(converted.len() as u64);
    report.finish(&args)?;
    args.finish_run(&mut manifest)
}
