//! The two ways the benchmark sees inside a live session, both through
//! callback seams the program already exposes: a [`Vfs`] handed to
//! `DurableSink::create_replicated_with`, and a [`SampleSource`] handed to
//! `StreamService::run`. [`TimingVfs`] and [`TimedSource`] delegate every
//! call unchanged and only count and time it.
//!
//! Live sessions journal into a [`MemVfs`]: files held in memory, fsync
//! returning at once, as on tmpfs. The benchmark may write only inside the
//! directory it runs in, and on a disk there every fsync costs what the
//! host's disk happens to cost that minute, which would swamp the program's
//! own work. Only the traced sweep's disk leg journals through `OsVfs`,
//! so that the write and fsync times it reports are the program's real
//! calls.

use crate::trace::Tracer;
use emoleak_durable::{Vfs, VfsFile};
use emoleak_stream::{ReplaySource, SampleSource, SourceChunk, SourceError};
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Where a seam files its spans: the tracer, the span to hang them under
/// (settable, so one seam can serve set-up and then the run), and the
/// operation's group id.
#[derive(Debug, Clone)]
pub struct SpanSink {
    tracer: Arc<Tracer>,
    parent: Arc<AtomicUsize>,
    group: u64,
}

impl SpanSink {
    /// Files spans under `parent` with group id `group`.
    pub fn new(tracer: Arc<Tracer>, parent: usize, group: u64) -> SpanSink {
        SpanSink {
            tracer,
            parent: Arc::new(AtomicUsize::new(parent)),
            group,
        }
    }

    /// Moves later spans under `parent`.
    pub fn reparent(&self, parent: usize) {
        self.parent.store(parent, Ordering::Relaxed);
    }

    fn record(&self, name: &'static str, start_ns: u64, end_ns: u64) {
        let parent = self.parent.load(Ordering::Relaxed);
        self.tracer
            .record(name, Some(parent), self.group, start_ns, end_ns);
    }
}

/// Times `f` on the tracer's clock and files it as span `name`.
fn timed<T>(sink: &SpanSink, name: &'static str, ns: &AtomicU64, f: impl FnOnce() -> T) -> T {
    let start = sink.tracer.now_ns();
    let out = f();
    let end = sink.tracer.now_ns();
    ns.fetch_add(end - start, Ordering::Relaxed);
    sink.record(name, start, end);
    out
}

/// Write-side totals a [`TimingVfs`] accumulates (statistics only, so
/// every counter is `Relaxed`).
#[derive(Debug, Default)]
pub struct VfsCounters {
    /// Appends.
    pub writes: AtomicU64,
    /// Time inside appends, ns.
    pub write_ns: AtomicU64,
    /// Bytes appended.
    pub bytes: AtomicU64,
    /// Fsyncs.
    pub fsyncs: AtomicU64,
    /// Time inside fsyncs, ns.
    pub fsync_ns: AtomicU64,
}

type FileBytes = Arc<Mutex<Vec<u8>>>;

fn bytes(file: &FileBytes) -> MutexGuard<'_, Vec<u8>> {
    file.lock()
        .expect("a thread panicked while writing a journal")
}

/// An in-memory [`Vfs`] with tmpfs semantics: appends land in a byte
/// vector per path, fsync and directory sync return at once, and there is
/// no free-space signal.
#[derive(Debug, Default)]
pub struct MemVfs {
    files: Mutex<HashMap<PathBuf, FileBytes>>,
}

impl MemVfs {
    fn files(&self) -> MutexGuard<'_, HashMap<PathBuf, FileBytes>> {
        self.files
            .lock()
            .expect("a thread panicked while opening a journal")
    }

    /// The bytes written to `path`, if it exists.
    pub fn contents(&self, path: &Path) -> Option<Vec<u8>> {
        self.files().get(path).map(|f| bytes(f).clone())
    }
}

#[derive(Debug)]
struct MemFile {
    data: FileBytes,
}

impl VfsFile for MemFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        bytes(&self.data).extend_from_slice(buf);
        Ok(buf.len())
    }

    fn fsync(&mut self) -> io::Result<u64> {
        Ok(0)
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        let len = usize::try_from(len).map_err(io::Error::other)?;
        bytes(&self.data).truncate(len);
        Ok(())
    }
}

impl Vfs for MemVfs {
    fn open(&self, path: &Path, truncate: bool) -> io::Result<Box<dyn VfsFile>> {
        let data = Arc::clone(self.files().entry(path.to_path_buf()).or_default());
        if truncate {
            bytes(&data).clear();
        }
        Ok(Box::new(MemFile { data }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.contents(path)
            .ok_or_else(|| io::Error::from(io::ErrorKind::NotFound))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut files = self.files();
        let data = files
            .remove(from)
            .ok_or_else(|| io::Error::from(io::ErrorKind::NotFound))?;
        files.insert(to.to_path_buf(), data);
        Ok(())
    }

    fn sync_dir(&self, _path: &Path) -> io::Result<()> {
        Ok(())
    }

    fn free_space(&self, _path: &Path) -> Option<u64> {
        None
    }
}

/// A [`Vfs`] that passes every call to another and times appends and
/// fsyncs.
#[derive(Debug)]
pub struct TimingVfs {
    inner: Arc<dyn Vfs>,
    counters: Arc<VfsCounters>,
    sink: SpanSink,
}

impl TimingVfs {
    /// Delegates to `inner`, counts into `counters` and files spans
    /// through `sink`.
    pub fn new(inner: Arc<dyn Vfs>, counters: Arc<VfsCounters>, sink: SpanSink) -> TimingVfs {
        TimingVfs {
            inner,
            counters,
            sink,
        }
    }
}

#[derive(Debug)]
struct TimingFile {
    inner: Box<dyn VfsFile>,
    counters: Arc<VfsCounters>,
    sink: SpanSink,
}

impl VfsFile for TimingFile {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        let c = &self.counters;
        let n = timed(&self.sink, "vfs.write", &c.write_ns, || {
            self.inner.write(bytes)
        })?;
        c.writes.fetch_add(1, Ordering::Relaxed);
        c.bytes.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    fn fsync(&mut self) -> io::Result<u64> {
        let c = &self.counters;
        let stalled = timed(&self.sink, "vfs.fsync", &c.fsync_ns, || self.inner.fsync())?;
        c.fsyncs.fetch_add(1, Ordering::Relaxed);
        Ok(stalled)
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.inner.truncate(len)
    }
}

impl Vfs for TimingVfs {
    fn open(&self, path: &Path, truncate: bool) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(TimingFile {
            inner: self.inner.open(path, truncate)?,
            counters: Arc::clone(&self.counters),
            sink: self.sink.clone(),
        }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        self.inner.sync_dir(path)
    }

    fn free_space(&self, path: &Path) -> Option<u64> {
        self.inner.free_space(path)
    }
}

/// Pull totals a [`TimedSource`] accumulates.
#[derive(Debug, Default)]
pub struct SourceCounters {
    /// `next_chunk` calls.
    pub pulls: AtomicU64,
    /// Time inside `next_chunk`, ns.
    pub pull_ns: AtomicU64,
}

/// A [`SampleSource`] that passes every pull to a [`ReplaySource`] and
/// times it.
pub struct TimedSource {
    inner: ReplaySource,
    counters: Arc<SourceCounters>,
    sink: SpanSink,
}

impl TimedSource {
    /// Replays `inner`, counting into `counters` and filing spans through
    /// `sink`.
    pub fn new(inner: ReplaySource, counters: Arc<SourceCounters>, sink: SpanSink) -> Self {
        TimedSource {
            inner,
            counters,
            sink,
        }
    }
}

impl SampleSource for TimedSource {
    fn next_chunk(&mut self) -> Result<Option<SourceChunk>, SourceError> {
        let c = &self.counters;
        let out = timed(&self.sink, "source.pull", &c.pull_ns, || {
            self.inner.next_chunk()
        });
        c.pulls.fetch_add(1, Ordering::Relaxed);
        out
    }
}
