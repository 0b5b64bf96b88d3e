//! Content-addressed result cache, persisted as JSONL.
//!
//! Each entry maps a [`JobSpec::cache_key`] to the full [`Stats`] of a
//! completed run, one JSON object per line in `<dir>/cache.jsonl`. A
//! re-run of `run_figures.sh` therefore only executes configs whose key
//! is absent — i.e. configs that changed (any architectural parameter,
//! security knob, ops count, seed, or the [`CACHE_FORMAT`] version).
//!
//! Robustness rules:
//! * corrupt or truncated lines are skipped, never fatal;
//! * duplicate keys resolve to the *last* line (append-wins);
//! * the file is append-only during a sweep, so a crash mid-run loses at
//!   most the in-flight entry.
//!
//! [`JobSpec::cache_key`]: crate::spec::JobSpec::cache_key
//! [`CACHE_FORMAT`]: crate::spec::CACHE_FORMAT

use crate::json::{self, Value};
use crate::record::{decode_stats, encode_stats};
use senss_sim::Stats;
use std::collections::{HashMap, HashSet};
use std::fs::{self, File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

/// The on-disk cache file name inside the cache directory.
pub const CACHE_FILE: &str = "cache.jsonl";

/// An open result cache.
#[derive(Debug)]
pub struct ResultCache {
    path: PathBuf,
    entries: HashMap<String, Stats>,
    skipped: usize,
}

impl ResultCache {
    /// Opens (creating if needed) the cache under `dir`.
    ///
    /// Loading is damage-tolerant: lines that are not valid UTF-8, not
    /// parseable JSON, or not shaped like a cache entry (e.g. truncated
    /// by a crash mid-append) are skipped and counted — a partially
    /// corrupt cache degrades to a partially warm cache, it never fails
    /// the run. The skip count is reported by
    /// [`skipped`](ResultCache::skipped).
    pub fn open(dir: &Path) -> std::io::Result<ResultCache> {
        fs::create_dir_all(dir)?;
        let path = dir.join(CACHE_FILE);
        let mut entries = HashMap::new();
        let mut skipped = 0;
        match File::open(&path) {
            Ok(f) => {
                let mut reader = BufReader::new(f);
                let mut raw = Vec::new();
                loop {
                    raw.clear();
                    if reader.read_until(b'\n', &mut raw)? == 0 {
                        break;
                    }
                    let Ok(line) = std::str::from_utf8(&raw) else {
                        skipped += 1;
                        continue;
                    };
                    if line.trim().is_empty() {
                        continue;
                    }
                    match parse_entry(line.trim_end_matches(['\r', '\n'])) {
                        Some((key, stats)) => {
                            entries.insert(key, stats);
                        }
                        None => skipped += 1,
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        if skipped > 0 {
            warn_corrupt_once(&path, skipped);
        }
        Ok(ResultCache {
            path,
            entries,
            skipped,
        })
    }

    /// Number of on-disk lines that were corrupt or truncated and had
    /// to be skipped while loading.
    pub fn skipped(&self) -> usize {
        self.skipped
    }

    /// Number of cached results.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no results.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up a result by cache key.
    pub fn get(&self, key: &str) -> Option<&Stats> {
        self.entries.get(key)
    }

    /// Records a result, appending it to the JSONL file.
    ///
    /// The line and its newline go out in one `write` on an `O_APPEND`
    /// handle, so processes appending to one cache file at once cannot
    /// interleave their lines.
    pub fn put(&mut self, key: &str, stats: &Stats) -> std::io::Result<()> {
        let mut line = Value::Obj(vec![
            ("key".into(), Value::Str(key.to_string())),
            ("stats".into(), encode_stats(stats)),
        ])
        .encode();
        line.push('\n');
        let mut f = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        f.write_all(line.as_bytes())?;
        self.entries.insert(key.to_string(), stats.clone());
        Ok(())
    }
}

/// Warns about corrupt lines at most once per cache file per process.
/// Long-running hosts (`senss-serve`) reopen the same cache for every
/// sweep; a damaged file would otherwise spam one warning per job
/// submission. The count still reaches callers through
/// [`ResultCache::skipped`] on every open.
fn warn_corrupt_once(path: &Path, skipped: usize) {
    static WARNED: OnceLock<Mutex<HashSet<PathBuf>>> = OnceLock::new();
    let warned = WARNED.get_or_init(|| Mutex::new(HashSet::new()));
    let mut warned = warned
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if warned.insert(path.to_path_buf()) {
        eprintln!(
            "harness: skipped {skipped} corrupt cache line(s) in {}; \
             affected jobs will re-execute (warning shown once per file)",
            path.display()
        );
    }
}

fn parse_entry(line: &str) -> Option<(String, Stats)> {
    let v = json::parse(line).ok()?;
    let key = v.get("key")?.as_str()?.to_string();
    let stats = decode_stats(v.get("stats")?)?;
    Some((key, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("senss-harness-cache-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn roundtrips_through_disk() {
        let dir = tmp_dir("roundtrip");
        let stats = Stats {
            total_cycles: 42,
            core_ops: vec![21, 21],
            ..Stats::default()
        };
        {
            let mut c = ResultCache::open(&dir).unwrap();
            assert!(c.is_empty());
            c.put("k1", &stats).unwrap();
            assert_eq!(c.get("k1"), Some(&stats));
        }
        let c = ResultCache::open(&dir).unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(c.get("k1"), Some(&stats));
        assert_eq!(c.get("k2"), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_lines_are_skipped_and_last_write_wins() {
        let dir = tmp_dir("corrupt");
        fs::create_dir_all(&dir).unwrap();
        let older = Value::Obj(vec![
            ("key".into(), Value::Str("dup".into())),
            (
                "stats".into(),
                encode_stats(&Stats {
                    total_cycles: 1,
                    ..Stats::default()
                }),
            ),
        ])
        .encode();
        let newer = Value::Obj(vec![
            ("key".into(), Value::Str("dup".into())),
            (
                "stats".into(),
                encode_stats(&Stats {
                    total_cycles: 2,
                    ..Stats::default()
                }),
            ),
        ])
        .encode();
        fs::write(
            dir.join(CACHE_FILE),
            format!("{older}\nnot json at all\n{{\"key\":\"half\"\n{newer}\n"),
        )
        .unwrap();
        let c = ResultCache::open(&dir).unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(c.get("dup").unwrap().total_cycles, 2);
        assert_eq!(c.skipped(), 2, "both corrupt lines must be counted");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mangled_cache_file_degrades_instead_of_failing() {
        let dir = tmp_dir("mangled");
        fs::create_dir_all(&dir).unwrap();
        let good = Value::Obj(vec![
            ("key".into(), Value::Str("ok".into())),
            (
                "stats".into(),
                encode_stats(&Stats {
                    total_cycles: 7,
                    ..Stats::default()
                }),
            ),
        ])
        .encode();
        // A valid entry surrounded by: raw invalid UTF-8, a truncated
        // (crash mid-append) line, a wrong-shape object, and an empty
        // line. Only the invalid ones count as skipped.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"\xff\xfe\x80 garbage bytes\n");
        bytes.extend_from_slice(good.as_bytes());
        bytes.extend_from_slice(b"\n");
        bytes.extend_from_slice(&good.as_bytes()[..good.len() / 2]);
        bytes.extend_from_slice(b"\n");
        bytes.extend_from_slice(b"{\"stats\":{}}\n");
        bytes.extend_from_slice(b"\n");
        fs::write(dir.join(CACHE_FILE), bytes).unwrap();
        let c = ResultCache::open(&dir).unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(c.get("ok").unwrap().total_cycles, 7);
        assert_eq!(c.skipped(), 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Concurrent appenders, each with its own handle (as separate
    /// processes sharing one cache file have), never tear a line.
    #[test]
    fn concurrent_appends_keep_lines_whole() {
        let dir = tmp_dir("concurrent");
        const THREADS: u64 = 8;
        const PUTS: u64 = 1000;
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (dir, start) = (&dir, &start);
                s.spawn(move || {
                    let mut c = ResultCache::open(dir).unwrap();
                    start.wait();
                    for i in 0..PUTS {
                        let stats = Stats {
                            total_cycles: t * PUTS + i,
                            core_ops: vec![i; 8],
                            ..Stats::default()
                        };
                        c.put(&format!("t{t}-{i}"), &stats).unwrap();
                    }
                });
            }
        });
        let c = ResultCache::open(&dir).unwrap();
        assert_eq!(c.skipped(), 0, "no appended line may be torn");
        assert_eq!(c.len() as u64, THREADS * PUTS);
        assert_eq!(c.get("t3-7").unwrap().total_cycles, 3 * PUTS + 7);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn final_line_without_newline_still_loads() {
        let dir = tmp_dir("nonewline");
        fs::create_dir_all(&dir).unwrap();
        let good = Value::Obj(vec![
            ("key".into(), Value::Str("tail".into())),
            (
                "stats".into(),
                encode_stats(&Stats {
                    total_cycles: 3,
                    ..Stats::default()
                }),
            ),
        ])
        .encode();
        fs::write(dir.join(CACHE_FILE), good.as_bytes()).unwrap();
        let c = ResultCache::open(&dir).unwrap();
        assert_eq!(c.get("tail").unwrap().total_cycles, 3);
        assert_eq!(c.skipped(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }
}
