//! Where the benchmark writes: `benchmark/out/` inside the checkout, and
//! per-run temp directories under it that are removed on exit.

use std::path::{Path, PathBuf};

/// `benchmark/out/`, fixed at build time so a run never writes outside the
/// checkout it was built from.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// The temp directory a run of `tag` in process `pid` uses.
pub fn temp_path(tag: &str, pid: u32) -> PathBuf {
    out_dir().join(format!("tmp-{tag}-{pid}"))
}

/// A directory for one run's journals, checkpoints and snapshots.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> std::io::Result<TempDir> {
        let path = temp_path(tag, std::process::id());
        std::fs::create_dir_all(&path)?;
        Ok(TempDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        // Best effort: a leftover directory is ignored by git and harmless.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
