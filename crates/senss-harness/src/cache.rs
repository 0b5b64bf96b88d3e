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
//! A [`Harness`](crate::Harness) opens its cache once and keeps it. At
//! each later sweep it [`refresh`](ResultCache::refresh)es: only lines
//! appended since the last read are parsed, so a long-running host
//! still sees what other processes sharing the directory wrote, without
//! re-parsing the whole file per sweep.
//!
//! [`JobSpec::cache_key`]: crate::spec::JobSpec::cache_key
//! [`CACHE_FORMAT`]: crate::spec::CACHE_FORMAT

use crate::json::{self, Value};
use crate::record::{decode_stats, encode_stats};
use senss_sim::Stats;
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{BufRead, BufReader, Seek, SeekFrom, Write};
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};

/// The on-disk cache file name inside the cache directory.
pub const CACHE_FILE: &str = "cache.jsonl";

/// An open result cache.
#[derive(Debug)]
pub struct ResultCache {
    dir: PathBuf,
    /// Read by `open` and `refresh`, appended to by every `put`.
    file: File,
    /// Bytes of `file` already parsed: every complete line before it.
    read_to: u64,
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
    /// [`skipped`](ResultCache::skipped) and in one warning on stderr.
    pub fn open(dir: &Path) -> std::io::Result<ResultCache> {
        fs::create_dir_all(dir)?;
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(dir.join(CACHE_FILE))?;
        let mut cache = ResultCache {
            dir: dir.to_path_buf(),
            file,
            read_to: 0,
            entries: HashMap::new(),
            skipped: 0,
        };
        cache.read_new(true)?;
        Ok(cache)
    }

    /// Catches up with the file: parses the lines appended since the
    /// last read, by this handle or any other. A cache file that was
    /// removed or replaced is opened afresh, so `rm -rf` of the cache
    /// directory empties a resident cache too. Returns the corrupt
    /// lines skipped by this call, which also warns about them.
    pub fn refresh(&mut self) -> std::io::Result<usize> {
        let held = self.file.metadata()?;
        let replaced = match fs::metadata(self.dir.join(CACHE_FILE)) {
            Ok(on_disk) => (on_disk.dev(), on_disk.ino()) != (held.dev(), held.ino()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => true,
            Err(e) => return Err(e),
        };
        if replaced {
            *self = ResultCache::open(&self.dir)?;
            return Ok(self.skipped);
        }
        self.read_new(false)
    }

    /// Parses complete lines from `read_to` on. A final line without a
    /// newline may still be being appended, so it stays unread; only
    /// `open` parses it, as the remnant of an earlier run.
    fn read_new(&mut self, at_open: bool) -> std::io::Result<usize> {
        let mut file = &self.file;
        file.seek(SeekFrom::Start(self.read_to))?;
        let mut reader = BufReader::new(file);
        let mut skipped = 0;
        let mut raw = Vec::new();
        loop {
            raw.clear();
            let n = reader.read_until(b'\n', &mut raw)?;
            if n == 0 {
                break;
            }
            if raw.ends_with(b"\n") {
                self.read_to += n as u64;
            } else if !at_open {
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
                    self.entries.insert(key, stats);
                }
                None => skipped += 1,
            }
        }
        if skipped > 0 {
            eprintln!(
                "harness: skipped {skipped} corrupt cache line(s) in {}; \
                 affected jobs will re-execute",
                self.dir.join(CACHE_FILE).display()
            );
        }
        self.skipped += skipped;
        Ok(skipped)
    }

    /// Number of on-disk lines that were corrupt or truncated and had
    /// to be skipped while loading or refreshing.
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
        let mut file = &self.file;
        file.write_all(line.as_bytes())?;
        self.entries.insert(key.to_string(), stats.clone());
        // An `O_APPEND` write leaves the offset at the end of its line:
        // if nothing unread precedes the line, `refresh` may skip it.
        let end = file.stream_position()?;
        if end - line.len() as u64 == self.read_to {
            self.read_to = end;
        }
        Ok(())
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
    use std::path::PathBuf;

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
    fn refresh_reads_only_what_others_appended() {
        let dir = tmp_dir("refresh");
        let stats = |cycles| Stats {
            total_cycles: cycles,
            ..Stats::default()
        };
        let mut resident = ResultCache::open(&dir).unwrap();
        let mut other = ResultCache::open(&dir).unwrap();
        resident.put("mine", &stats(1)).unwrap();
        other.put("theirs", &stats(2)).unwrap();
        assert_eq!(resident.get("theirs"), None);
        assert_eq!(resident.refresh().unwrap(), 0);
        assert_eq!(resident.get("theirs"), Some(&stats(2)));
        assert_eq!(
            resident.read_to,
            fs::metadata(dir.join(CACHE_FILE)).unwrap().len()
        );

        // A damaged line counts once, in the refresh that reads it.
        let mut raw = OpenOptions::new()
            .append(true)
            .open(dir.join(CACHE_FILE))
            .unwrap();
        raw.write_all(b"not json\n").unwrap();
        assert_eq!(resident.refresh().unwrap(), 1);
        assert_eq!(resident.refresh().unwrap(), 0);
        assert_eq!(resident.skipped(), 1);

        // A line still being appended waits for its newline.
        raw.write_all(b"{\"key\":").unwrap();
        assert_eq!(resident.refresh().unwrap(), 0);
        raw.write_all(b"\"late\"}\n").unwrap();
        assert_eq!(resident.refresh().unwrap(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn refresh_reopens_a_removed_cache() {
        let dir = tmp_dir("removed");
        let stats = Stats::default();
        let mut resident = ResultCache::open(&dir).unwrap();
        resident.put("old", &stats).unwrap();
        fs::remove_dir_all(&dir).unwrap();
        resident.refresh().unwrap();
        assert!(
            resident.is_empty(),
            "a removed cache must not keep serving hits"
        );
        resident.put("new", &stats).unwrap();
        let reopened = ResultCache::open(&dir).unwrap();
        assert_eq!(reopened.len(), 1);
        assert!(reopened.get("new").is_some());
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
