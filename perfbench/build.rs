//! Records the toolchain and profile the benchmark was built with, for
//! the host descriptor of every result.

use std::process::Command;

fn capture(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    println!(
        "cargo:rustc-env=PERFBENCH_RUSTC={}",
        capture(&rustc, &["--version"])
    );
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".to_string());
    let opt = std::env::var("OPT_LEVEL").unwrap_or_else(|_| "?".to_string());
    println!("cargo:rustc-env=PERFBENCH_PROFILE={profile} opt-level={opt} lto=fat codegen-units=1");
    println!("cargo:rerun-if-changed=build.rs");
}
