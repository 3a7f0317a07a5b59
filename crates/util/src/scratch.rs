//! A fresh directory under [`std::env::temp_dir`], removed when dropped.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// An owned `<temp_dir>/<prefix>-<pid>-<n>` directory tree.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates the directory, skipping names a process of the same id left.
    pub fn new(prefix: &str) -> crate::Result<ScratchDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        loop {
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let path = std::env::temp_dir().join(format!("{prefix}-{}-{n}", std::process::id()));
            match std::fs::create_dir(&path) {
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
                created => return Ok(created.map(|()| ScratchDir(path))?),
            }
        }
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_scratch_dir_is_fresh_and_dropping_removes_it() {
        let a = ScratchDir::new("lms-scratch").unwrap();
        let b = ScratchDir::new("lms-scratch").unwrap();
        assert_ne!(a.path(), b.path());
        std::fs::write(a.path().join("f"), b"x").unwrap();
        let path = a.path().to_path_buf();
        drop(a);
        assert!(!path.exists());
        assert!(b.path().is_dir());
    }
}
