//! HiPER checkpoint module.
//!
//! Paper §V names this as planned future work: "a HiPER module for
//! checkpointing of application state would enable overlapping of checkpoint
//! I/O with useful application work." This crate is that module: checkpoint
//! writes are tasks placed at a storage place (LocalDisk or Nvm) in the
//! platform model, scheduled by the same unified runtime as everything else,
//! and return futures so applications keep computing while snapshots drain
//! to disk.
//!
//! Snapshots are written atomically (temp file + rename), carry a checksum
//! validated on restore, and are versioned per name. A configurable
//! bandwidth model charges write time in wall-clock terms, so the benefit of
//! overlap is measurable exactly like the communication modules'.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use hiper_platform::PlaceKind;
use hiper_runtime::{Future, ModuleCtx, ModuleError, Runtime, SchedulerModule};

/// Storage performance model.
#[derive(Debug, Clone, Copy)]
pub struct DiskModel {
    /// Write bandwidth in bytes/second (burst-buffer flash scale).
    pub write_bandwidth: f64,
    /// Fixed per-operation overhead.
    pub overhead: Duration,
}

impl Default for DiskModel {
    fn default() -> Self {
        DiskModel {
            write_bandwidth: 1.0e9,
            overhead: Duration::from_micros(100),
        }
    }
}

/// The checkpoint module.
pub struct CheckpointModule {
    dir: PathBuf,
    model: DiskModel,
    ctx: ModuleCtx,
}

/// Error returned by [`CheckpointModule::restore`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// No snapshot exists under that name/version.
    NotFound,
    /// The snapshot file exists but fails checksum validation (truncated,
    /// bit-flipped, or mis-framed).
    Corrupt,
    /// Underlying I/O failure.
    Io(String),
}

/// The typed checkpoint error: alias for [`RestoreError`] under the name
/// the recovery path uses (`CheckpointError::Corrupt` etc).
pub type CheckpointError = RestoreError;

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::NotFound => f.write_str("snapshot not found"),
            RestoreError::Corrupt => f.write_str("snapshot failed checksum validation"),
            RestoreError::Io(e) => write!(f, "i/o error: {}", e),
        }
    }
}

impl std::error::Error for RestoreError {}

/// Future on a restored snapshot's bytes, as returned by
/// [`CheckpointModule::restore`] and [`CheckpointModule::restore_latest`].
pub type RestoreFuture = Future<Result<Vec<u8>, RestoreError>>;

/// Future on the newest intact snapshot — `(version, bytes)` — as returned
/// by [`CheckpointModule::restore_latest`].
pub type RestoreLatestFuture = Future<Result<(u64, Vec<u8>), RestoreError>>;

fn fnv1a(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Validates one on-disk snapshot image (`[len u64][fnv1a u64][payload]`)
/// and returns the payload. Every way a file can be damaged — truncation
/// below the header, truncated or padded payload, flipped payload or
/// header bytes — lands in `Corrupt`, never a panic.
fn validate_file(file: &[u8]) -> Result<Vec<u8>, RestoreError> {
    if file.len() < 16 {
        return Err(RestoreError::Corrupt);
    }
    let len = u64::from_le_bytes(file[..8].try_into().unwrap()) as usize;
    let sum = u64::from_le_bytes(file[8..16].try_into().unwrap());
    let data = &file[16..];
    if data.len() != len || fnv1a(data) != sum {
        return Err(RestoreError::Corrupt);
    }
    Ok(data.to_vec())
}

impl CheckpointModule {
    /// Creates a module writing snapshots under `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Arc<CheckpointModule> {
        Self::with_model(dir, DiskModel::default())
    }

    /// Creates a module with an explicit storage model.
    pub fn with_model(dir: impl Into<PathBuf>, model: DiskModel) -> Arc<CheckpointModule> {
        Arc::new(CheckpointModule {
            dir: dir.into(),
            model,
            ctx: ModuleCtx::new("checkpoint", "checkpoint-poll"),
        })
    }

    fn path(&self, name: &str, version: u64) -> PathBuf {
        self.dir.join(format!("{}.v{}.ckpt", name, version))
    }

    /// Asynchronously writes snapshot `version` of `name`. The returned
    /// future is satisfied when the snapshot is durably on disk; the caller
    /// keeps computing meanwhile (the §V overlap).
    pub fn checkpoint(&self, name: &str, version: u64, data: Vec<u8>) -> Future<()> {
        let path = self.path(name, version);
        let tmp = path.with_extension("tmp");
        let model = self.model;
        self.ctx.time_op("", 0, |b| {
            b.rt.spawn_future_at(b.place, move || {
                // Charge modeled write time (makes blocking-vs-overlap
                // measurable even on fast tmpfs).
                std::thread::sleep(
                    model.overhead
                        + Duration::from_secs_f64(data.len() as f64 / model.write_bandwidth),
                );
                let mut file = Vec::with_capacity(data.len() + 16);
                file.extend_from_slice(&(data.len() as u64).to_le_bytes());
                file.extend_from_slice(&fnv1a(&data).to_le_bytes());
                file.extend_from_slice(&data);
                std::fs::create_dir_all(tmp.parent().unwrap())
                    .expect("cannot create checkpoint directory");
                std::fs::write(&tmp, &file).expect("checkpoint write failed");
                std::fs::rename(&tmp, &path).expect("checkpoint rename failed");
            })
        })
    }

    /// Asynchronously restores snapshot `version` of `name`.
    pub fn restore(&self, name: &str, version: u64) -> RestoreFuture {
        let path = self.path(name, version);
        self.ctx.with(|b| {
            b.rt.spawn_future_at(b.place, move || {
                let file = match std::fs::read(&path) {
                    Ok(f) => f,
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                        return Err(RestoreError::NotFound)
                    }
                    Err(e) => return Err(RestoreError::Io(e.to_string())),
                };
                validate_file(&file)
            })
        })
    }

    /// Restart support: restores the most recent *valid* snapshot of
    /// `name`. Returns `None` when no snapshot file exists at all (cold
    /// start). Otherwise the future resolves to the newest version that
    /// passes checksum validation together with its payload — a damaged
    /// (truncated, bit-flipped) newest snapshot is skipped with a warning
    /// and the scan falls back to the next-older version. Only when every
    /// stored version is damaged does the future resolve to
    /// `Err(CheckpointError::Corrupt)`.
    pub fn restore_latest(&self, name: &str) -> Option<RestoreLatestFuture> {
        let mut versions = self.versions(name);
        if versions.is_empty() {
            return None;
        }
        versions.reverse(); // newest first
        let paths: Vec<(u64, PathBuf)> =
            versions.iter().map(|&v| (v, self.path(name, v))).collect();
        Some(self.ctx.with(|b| {
            b.rt.spawn_future_at(b.place, move || {
                let mut last_err = RestoreError::NotFound;
                for (version, path) in paths {
                    let file = match std::fs::read(&path) {
                        Ok(f) => f,
                        Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                        Err(e) => {
                            last_err = RestoreError::Io(e.to_string());
                            continue;
                        }
                    };
                    match validate_file(&file) {
                        Ok(data) => return Ok((version, data)),
                        Err(e) => {
                            eprintln!(
                                "[hiper-checkpoint] snapshot {} failed validation ({}); \
                                 falling back to an older version",
                                path.display(),
                                e
                            );
                            last_err = e;
                        }
                    }
                }
                Err(last_err)
            })
        }))
    }

    /// Latest available version of `name`, if any (synchronous directory
    /// scan; existence only — the file may still fail validation).
    pub fn latest_version(&self, name: &str) -> Option<u64> {
        self.versions(name).last().copied()
    }

    /// Every stored version of `name`, ascending (synchronous directory
    /// scan). Unparseable or foreign filenames are ignored.
    pub fn versions(&self, name: &str) -> Vec<u64> {
        let prefix = format!("{}.v", name);
        let mut versions = Vec::new();
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(e) => e,
            Err(_) => return versions,
        };
        for entry in entries.flatten() {
            let fname = match entry.file_name().into_string() {
                Ok(f) => f,
                Err(_) => continue,
            };
            if let Some(rest) = fname.strip_prefix(&prefix) {
                if let Some(v) = rest
                    .strip_suffix(".ckpt")
                    .and_then(|s| s.parse::<u64>().ok())
                {
                    versions.push(v);
                }
            }
        }
        versions.sort_unstable();
        versions
    }
}

impl SchedulerModule for CheckpointModule {
    fn name(&self) -> &'static str {
        "checkpoint"
    }

    fn initialize(&self, rt: &Runtime) -> Result<(), ModuleError> {
        // Platform assertion: a storage place must exist.
        let place = self
            .ctx
            .find_place(rt, &[PlaceKind::LocalDisk, PlaceKind::Nvm])?;
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| ModuleError::new("checkpoint", e.to_string()))?;
        self.ctx.bind(rt, place, ());
        Ok(())
    }

    fn finalize(&self, _rt: &Runtime) {
        self.ctx.unbind();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hiper_platform::autogen;
    use hiper_runtime::RuntimeBuilder;

    fn disk_platform(workers: usize) -> hiper_platform::PlatformConfig {
        autogen::figure2(workers) // has nvm + disk places
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("hiper_ckpt_tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn fast_model() -> DiskModel {
        DiskModel {
            write_bandwidth: 1e12,
            overhead: Duration::ZERO,
        }
    }

    #[test]
    fn checkpoint_and_restore_roundtrip() {
        let ckpt = CheckpointModule::with_model(tmpdir("roundtrip"), fast_model());
        let rt = RuntimeBuilder::new(disk_platform(1))
            .module(Arc::clone(&ckpt) as Arc<dyn SchedulerModule>)
            .build()
            .unwrap();
        let c = Arc::clone(&ckpt);
        rt.block_on(move || {
            let data: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
            c.checkpoint("state", 1, data.clone()).wait();
            let restored = c.restore("state", 1).get().unwrap();
            assert_eq!(restored, data);
        });
        rt.shutdown();
    }

    #[test]
    fn missing_snapshot_is_not_found() {
        let ckpt = CheckpointModule::with_model(tmpdir("missing"), fast_model());
        let rt = RuntimeBuilder::new(disk_platform(1))
            .module(Arc::clone(&ckpt) as Arc<dyn SchedulerModule>)
            .build()
            .unwrap();
        let c = Arc::clone(&ckpt);
        rt.block_on(move || {
            assert_eq!(c.restore("nope", 1).get(), Err(RestoreError::NotFound));
        });
        rt.shutdown();
    }

    #[test]
    fn corruption_is_detected() {
        let dir = tmpdir("corrupt");
        let ckpt = CheckpointModule::with_model(dir.clone(), fast_model());
        let rt = RuntimeBuilder::new(disk_platform(1))
            .module(Arc::clone(&ckpt) as Arc<dyn SchedulerModule>)
            .build()
            .unwrap();
        let c = Arc::clone(&ckpt);
        rt.block_on(move || {
            c.checkpoint("state", 3, vec![1, 2, 3, 4]).wait();
            // Flip a payload byte on disk.
            let path = dir.join("state.v3.ckpt");
            let mut bytes = std::fs::read(&path).unwrap();
            let last = bytes.len() - 1;
            bytes[last] ^= 0xFF;
            std::fs::write(&path, &bytes).unwrap();
            assert_eq!(c.restore("state", 3).get(), Err(RestoreError::Corrupt));
        });
        rt.shutdown();
    }

    #[test]
    fn versions_are_tracked() {
        let ckpt = CheckpointModule::with_model(tmpdir("versions"), fast_model());
        let rt = RuntimeBuilder::new(disk_platform(1))
            .module(Arc::clone(&ckpt) as Arc<dyn SchedulerModule>)
            .build()
            .unwrap();
        let c = Arc::clone(&ckpt);
        rt.block_on(move || {
            assert_eq!(c.latest_version("s"), None);
            c.checkpoint("s", 1, vec![1]).wait();
            c.checkpoint("s", 2, vec![2]).wait();
            c.checkpoint("s", 10, vec![3]).wait();
            assert_eq!(c.latest_version("s"), Some(10));
            assert_eq!(c.restore("s", 2).get().unwrap(), vec![2]);
        });
        rt.shutdown();
    }

    #[test]
    fn restart_resumes_from_latest_snapshot() {
        // Simulated crash/restart: a first "process" checkpoints progress,
        // dies, and a second one picks up from the newest snapshot.
        let dir = tmpdir("restart");
        {
            let ckpt = CheckpointModule::with_model(dir.clone(), fast_model());
            let rt = RuntimeBuilder::new(disk_platform(1))
                .module(Arc::clone(&ckpt) as Arc<dyn SchedulerModule>)
                .build()
                .unwrap();
            let c = Arc::clone(&ckpt);
            rt.block_on(move || {
                c.checkpoint("iter", 1, vec![1, 0]).wait();
                c.checkpoint("iter", 2, vec![2, 0]).wait();
                c.checkpoint("iter", 7, vec![7, 0]).wait();
            });
            rt.shutdown(); // the "crash"
        }
        {
            let ckpt = CheckpointModule::with_model(dir, fast_model());
            let rt = RuntimeBuilder::new(disk_platform(1))
                .module(Arc::clone(&ckpt) as Arc<dyn SchedulerModule>)
                .build()
                .unwrap();
            let c = Arc::clone(&ckpt);
            rt.block_on(move || {
                assert!(c.restore_latest("nothing").is_none(), "cold start");
                let fut = c.restore_latest("iter").expect("snapshot exists");
                let (version, data) = fut.get().unwrap();
                assert_eq!(version, 7);
                assert_eq!(data, vec![7, 0]);
            });
            rt.shutdown();
        }
    }

    #[test]
    fn corrupt_latest_falls_back_to_previous_version() {
        let dir = tmpdir("fallback");
        let ckpt = CheckpointModule::with_model(dir.clone(), fast_model());
        let rt = RuntimeBuilder::new(disk_platform(1))
            .module(Arc::clone(&ckpt) as Arc<dyn SchedulerModule>)
            .build()
            .unwrap();
        let c = Arc::clone(&ckpt);
        rt.block_on(move || {
            c.checkpoint("s", 1, vec![10, 11]).wait();
            c.checkpoint("s", 2, vec![20, 21]).wait();
            c.checkpoint("s", 3, vec![30, 31]).wait();
            // Truncate the newest snapshot mid-payload.
            let p3 = dir.join("s.v3.ckpt");
            let bytes = std::fs::read(&p3).unwrap();
            std::fs::write(&p3, &bytes[..bytes.len() - 1]).unwrap();
            let (version, data) = c.restore_latest("s").unwrap().get().unwrap();
            assert_eq!((version, data), (2, vec![20, 21]));
            // Damage v2 as well (bit-flip): falls all the way back to v1.
            let p2 = dir.join("s.v2.ckpt");
            let mut bytes = std::fs::read(&p2).unwrap();
            bytes[16] ^= 0x01;
            std::fs::write(&p2, &bytes).unwrap();
            let (version, data) = c.restore_latest("s").unwrap().get().unwrap();
            assert_eq!((version, data), (1, vec![10, 11]));
            // Every version damaged: typed Corrupt, not a panic.
            let p1 = dir.join("s.v1.ckpt");
            std::fs::write(&p1, b"short").unwrap();
            assert_eq!(
                c.restore_latest("s").unwrap().get(),
                Err(CheckpointError::Corrupt)
            );
        });
        rt.shutdown();
    }

    #[test]
    fn checkpoint_overlaps_with_compute() {
        // Slow disk: 50ms write. Overlapped with 40ms of compute, the total
        // must be well under the 90ms serial sum.
        let ckpt = CheckpointModule::with_model(
            tmpdir("overlap"),
            DiskModel {
                write_bandwidth: 1e6, // 50KB -> 50ms
                overhead: Duration::ZERO,
            },
        );
        let rt = RuntimeBuilder::new(disk_platform(2))
            .module(Arc::clone(&ckpt) as Arc<dyn SchedulerModule>)
            .build()
            .unwrap();
        let c = Arc::clone(&ckpt);
        let elapsed = rt.block_on(move || {
            let start = std::time::Instant::now();
            let fut = c.checkpoint("big", 1, vec![0u8; 50_000]);
            std::thread::sleep(Duration::from_millis(40)); // app compute
            fut.wait();
            start.elapsed()
        });
        assert!(
            elapsed < Duration::from_millis(85),
            "no overlap: {:?}",
            elapsed
        );
        rt.shutdown();
    }

    #[test]
    fn requires_storage_place() {
        let ckpt = CheckpointModule::with_model(tmpdir("noplace"), fast_model());
        let result = RuntimeBuilder::new(autogen::smp(1))
            .module(ckpt as Arc<dyn SchedulerModule>)
            .build();
        assert!(result.is_err());
    }
}
