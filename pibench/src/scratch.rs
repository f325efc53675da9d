//! Scratch space on disk. Everything the benchmark writes goes under one
//! per-process directory next to the executable — inside the build
//! directory, so inside the checkout and ignored by git — and is removed
//! when the run ends, also after a failed one.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The directory the executable was started from.
pub fn exe_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the executable has a path");
    exe.parent()
        .expect("the executable is in a directory")
        .to_path_buf()
}

fn process_root() -> PathBuf {
    exe_dir().join(format!("pibench-tmp-{}", std::process::id()))
}

/// Removes the per-process directory when dropped; `main` holds one for
/// the whole run, so a panic that unwinds through `main` cleans up too.
pub struct ProcessRoot;

impl Drop for ProcessRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(process_root());
    }
}

/// A fresh, empty directory under the process root, removed when dropped.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn fresh() -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = process_root().join(NEXT.fetch_add(1, Ordering::Relaxed).to_string());
        std::fs::create_dir_all(&dir).expect("create a scratch directory");
        TempDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Takes the process root with it once that is empty, for callers
        // that hold no `ProcessRoot` (the tests).
        let _ = std::fs::remove_dir(process_root());
    }
}
