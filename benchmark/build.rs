//! Records the compiler version, build profile and source revision for
//! the results' environment block.

use std::path::Path;
use std::process::Command;

#[path = "src/gitrev.rs"]
mod gitrev;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=NFBENCH_RUSTC={version}");
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".into());
    println!("cargo:rustc-env=NFBENCH_PROFILE={profile}");
    println!("cargo:rerun-if-changed=build.rs");

    // The repository's revision, so a run from a build of a git checkout
    // records it even when started elsewhere. Only existing files are
    // watched: a missing one would rerun this script on every build.
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let rev = gitrev::read_git_rev(&git).unwrap_or_default();
    println!("cargo:rustc-env=NFBENCH_GIT_REV={rev}");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let mut watched = vec![git.join("HEAD"), git.join("packed-refs")];
    if let Some(name) = head.trim().strip_prefix("ref: ") {
        watched.push(git.join(name));
    }
    for path in watched.iter().filter(|p| p.is_file()) {
        println!("cargo:rerun-if-changed={}", path.display());
    }
}
