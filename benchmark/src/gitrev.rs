//! Reads the revision a git directory's `HEAD` names. Shared by the
//! build script and the benchmark, so it uses `std` alone.

use std::path::Path;

/// The revision `HEAD` names in the git directory `git`: a detached
/// hash, or the branch's hash from its loose ref or from `packed-refs`.
pub fn read_git_rev(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string()).filter(|h| !h.is_empty());
    };
    let loose = std::fs::read_to_string(git.join(name))
        .map(|s| s.trim().to_string())
        .unwrap_or_default();
    if !loose.is_empty() {
        return Some(loose);
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()?
        .lines()
        .filter(|l| !l.starts_with('#') && !l.starts_with('^'))
        .find_map(|l| {
            let (hash, refname) = l.split_once(' ')?;
            (refname.trim() == name).then(|| hash.to_string())
        })
}

#[cfg(test)]
mod tests {
    use super::read_git_rev;

    #[test]
    fn git_rev_reads_loose_and_packed_refs() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("../.bench_out/test-git-{}", std::process::id()));
        let git = dir.join(".git");
        std::fs::create_dir_all(git.join("refs/heads")).unwrap();
        let hash = "3cd73b78871dce23bd31079dd7ae175e5ef7acb9";
        std::fs::write(git.join("HEAD"), "ref: refs/heads/main\n").unwrap();
        assert_eq!(read_git_rev(&git), None);
        std::fs::write(
            git.join("packed-refs"),
            format!("# pack-refs with: peeled\n{hash} refs/heads/main\n^0123\n"),
        )
        .unwrap();
        assert_eq!(read_git_rev(&git).as_deref(), Some(hash));
        std::fs::write(git.join("refs/heads/main"), "abc\n").unwrap();
        assert_eq!(read_git_rev(&git).as_deref(), Some("abc"));
        std::fs::write(git.join("HEAD"), format!("{hash}\n")).unwrap();
        assert_eq!(read_git_rev(&git).as_deref(), Some(hash));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
