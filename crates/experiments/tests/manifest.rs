//! The run manifest describes the library a binary actually ran on and
//! wrote: its `library_format` is the version of the container on disk.

use std::process::Command;

use spectral_telemetry::RunManifest;

#[test]
fn saved_library_is_stamped_with_the_written_container_format() {
    let dir = std::env::temp_dir().join(format!("spectral_manifest_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let library = dir.join("gcc.splp");
    let manifest = dir.join("run.json");
    let out = Command::new(env!("CARGO_BIN_EXE_online"))
        .args(["--quick", "--windows", "30", "--target", "10", "--save-library"])
        .arg(&library)
        .arg("--metrics-out")
        .arg(&manifest)
        .output()
        .expect("spawn online");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("(format v2)"));

    let bytes = std::fs::read(&library).expect("library written");
    assert!(bytes.starts_with(b"SPLP\x02"), "the default container is v2");
    let text = std::fs::read_to_string(&manifest).expect("manifest written");
    let m = RunManifest::from_json(&text).expect("manifest parses");
    assert_eq!(m.library_format, Some(2), "manifest names the container written");
    let _ = std::fs::remove_dir_all(&dir);
}
