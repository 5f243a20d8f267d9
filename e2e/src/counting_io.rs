//! A counting `StoreIo` over the real filesystem: exact bytes written,
//! write calls and fsyncs, split by file, so WAL and checkpoint traffic are
//! counts the harness makes itself rather than figures read from the
//! durability layer. Also home of the scratch-directory guard.

use crate::sut::{real_io, StoreFile, StoreIo};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

#[derive(Default)]
struct Counters {
    bytes: AtomicU64,
    writes: AtomicU64,
    fsyncs: AtomicU64,
}

/// Totals for one file name.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct FileCounts {
    pub bytes: u64,
    pub writes: u64,
    pub fsyncs: u64,
}

impl std::ops::Sub for FileCounts {
    type Output = FileCounts;
    fn sub(self, rhs: FileCounts) -> FileCounts {
        FileCounts {
            bytes: self.bytes - rhs.bytes,
            writes: self.writes - rhs.writes,
            fsyncs: self.fsyncs - rhs.fsyncs,
        }
    }
}

pub struct CountingIo {
    inner: Arc<dyn StoreIo>,
    files: Mutex<BTreeMap<String, Arc<Counters>>>,
}

impl CountingIo {
    pub fn over_real() -> Arc<CountingIo> {
        Arc::new(CountingIo {
            inner: real_io(),
            files: Mutex::new(BTreeMap::new()),
        })
    }

    /// Counters for `path`, keyed by file name with a `.tmp` suffix removed
    /// (a snapshot is written as `snapshot.fgdb.tmp`, then renamed).
    fn counters(&self, path: &Path) -> Arc<Counters> {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let name = name.strip_suffix(".tmp").unwrap_or(&name).to_string();
        let mut files = self.files.lock().expect("counting-io map poisoned");
        Arc::clone(files.entry(name).or_default())
    }

    /// Totals so far for files whose name contains `needle`
    /// (`"wal"` or `"snapshot"`).
    pub fn totals(&self, needle: &str) -> FileCounts {
        let files = self.files.lock().expect("counting-io map poisoned");
        let mut sum = FileCounts::default();
        for (_, c) in files.iter().filter(|(name, _)| name.contains(needle)) {
            // Relaxed: statistics, read after the writer threads are joined
            // or quiesced; they publish no other data.
            sum.bytes += c.bytes.load(Ordering::Relaxed);
            sum.writes += c.writes.load(Ordering::Relaxed);
            sum.fsyncs += c.fsyncs.load(Ordering::Relaxed);
        }
        sum
    }
}

struct CountingFile {
    inner: Box<dyn StoreFile>,
    counters: Arc<Counters>,
}

impl StoreFile for CountingFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.inner.write_all(buf)?;
        self.counters
            .bytes
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        self.counters.writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
    fn sync_data(&mut self) -> io::Result<()> {
        self.inner.sync_data()?;
        self.counters.fsyncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }
    fn seek_to(&mut self, pos: u64) -> io::Result<()> {
        self.inner.seek_to(pos)
    }
}

impl StoreIo for CountingIo {
    fn create(&self, path: &Path) -> io::Result<Box<dyn StoreFile>> {
        Ok(Box::new(CountingFile {
            inner: self.inner.create(path)?,
            counters: self.counters(path),
        }))
    }
    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn StoreFile>> {
        Ok(Box::new(CountingFile {
            inner: self.inner.open_rw(path)?,
            counters: self.counters(path),
        }))
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.inner.sync_dir(dir)
    }
    fn file_len(&self, path: &Path) -> io::Result<u64> {
        self.inner.file_len(path)
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }
    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}

/// `e2e/out/`: traces, reports and scratch stores live here and nowhere
/// else. `cargo run` exports CARGO_MANIFEST_DIR to the program; the
/// compile-time value covers a binary started by hand.
pub fn out_dir() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    Path::new(&manifest).join("out")
}

/// A fresh, empty store directory under `e2e/out/`, removed when the guard
/// drops — on every exit path, panics included.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(label: &str) -> io::Result<ScratchDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        // Relaxed: only uniqueness of the returned values matters.
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = out_dir().join(format!("scratch-{label}-{}-{n}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

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
    fn counts_split_by_file_and_scratch_is_removed() {
        let scratch = ScratchDir::new("counting-test").unwrap();
        let kept = scratch.path().to_path_buf();
        let io = CountingIo::over_real();
        let mut wal = io.create(&kept.join("wal.fgdb")).unwrap();
        wal.write_all(b"12345").unwrap();
        wal.write_all(b"678").unwrap();
        wal.sync_data().unwrap();
        let mut snap = io.create(&kept.join("snapshot.fgdb.tmp")).unwrap();
        snap.write_all(&[0u8; 100]).unwrap();
        assert_eq!(
            io.totals("wal"),
            FileCounts {
                bytes: 8,
                writes: 2,
                fsyncs: 1
            }
        );
        assert_eq!(io.totals("snapshot").bytes, 100);
        assert_eq!(io.totals("snapshot").fsyncs, 0);
        drop((wal, snap));
        drop(scratch);
        assert!(!kept.exists(), "scratch dir must be removed on drop");
    }
}
