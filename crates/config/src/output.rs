//! The one writer: every file the simulator leaves behind (snapshots,
//! the counters file, NoC traces, heat-map frames, metrics streams, the
//! DSE store) is written here. Each entry point creates the missing
//! parent directories, and every error names the path it failed on.

use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

/// Prefixes `e` with what failed on which path, keeping its kind.
fn failed(doing: &str, path: &Path, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("{doing} {}: {e}", path.display()))
}

/// Creates the missing parent directories of `path`.
fn create_parent(path: &Path) -> io::Result<()> {
    let dir = path.parent().unwrap_or(Path::new(""));
    fs::create_dir_all(dir).map_err(|e| failed("creating", dir, e))
}

/// Replaces the file at `path` with what `fill` writes, atomically: the
/// bytes go through a 1 MiB buffer to `<path>.tmp`, which is renamed
/// over `path` once flushed. On any failure the temporary file is
/// removed and the previous file at `path` is left untouched.
///
/// # Errors
///
/// The first I/O error, naming its path.
pub fn replace(
    path: impl AsRef<Path>,
    fill: impl FnOnce(&mut dyn Write) -> io::Result<()>,
) -> io::Result<()> {
    let path = path.as_ref();
    create_parent(path)?;
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let file = File::create(&tmp).map_err(|e| failed("creating", &tmp, e))?;
    let mut w = BufWriter::with_capacity(1 << 20, file);
    let filled = fill(&mut w).and_then(|()| w.flush());
    drop(w);
    let done = filled
        .map_err(|e| failed("writing", &tmp, e))
        .and_then(|()| fs::rename(&tmp, path).map_err(|e| failed("renaming into", path, e)));
    if done.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    done
}

/// A file truncated on creation and written through a buffer, for output
/// that grows during a run and stays readable under its name (`tail -f`).
/// Dropping it flushes the buffer and ignores errors; [`Write::flush`]
/// reports them.
#[derive(Debug)]
pub struct Stream {
    out: BufWriter<File>,
    path: PathBuf,
}

impl Stream {
    /// Creates (truncates) the file at `path`.
    ///
    /// # Errors
    ///
    /// The I/O error, naming its path.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        create_parent(&path)?;
        let out = BufWriter::new(File::create(&path).map_err(|e| failed("creating", &path, e))?);
        Ok(Stream { out, path })
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let written = self.out.write(buf);
        written.map_err(|e| failed("writing", &self.path, e))
    }

    fn flush(&mut self) -> io::Result<()> {
        let flushed = self.out.flush();
        flushed.map_err(|e| failed("writing", &self.path, e))
    }
}

/// Appends `record` to the file at `path` in one write, so a crash can
/// cut the last record short but never splice two together.
///
/// # Errors
///
/// The I/O error, naming its path.
pub fn append(path: impl AsRef<Path>, record: &[u8]) -> io::Result<()> {
    let path = path.as_ref();
    create_parent(path)?;
    OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut file| file.write_all(record))
        .map_err(|e| failed("appending to", path, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("muchisim-output-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn replace_creates_parents_and_leaves_no_temporary_file() {
        let dir = scratch("replace");
        let path = dir.join("a/b/out.bin");
        replace(&path, |w| w.write_all(b"first")).unwrap();
        replace(&path, |w| w.write_all(b"second")).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        assert!(!dir.join("a/b/out.bin.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_fill_that_fails_halfway_leaves_the_previous_file() {
        let dir = scratch("fill");
        let path = dir.join("out.bin");
        replace(&path, |w| w.write_all(b"previous")).unwrap();
        let err = replace(&path, |w| {
            w.write_all(&[7; 3 << 20])?;
            Err(io::Error::other("disk full"))
        })
        .unwrap_err();
        assert!(err.to_string().contains("out.bin.tmp"), "{err}");
        assert!(err.to_string().contains("disk full"), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), b"previous");
        assert!(!dir.join("out.bin.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_rename_leaves_the_previous_file() {
        let dir = scratch("rename");
        // a non-empty directory cannot be renamed over
        let path = dir.join("taken");
        std::fs::create_dir_all(path.join("inside")).unwrap();
        let err = replace(&path, |w| w.write_all(b"bytes")).unwrap_err();
        assert!(err.to_string().contains("taken"), "{err}");
        assert!(path.join("inside").is_dir());
        assert!(!dir.join("taken.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_parent_that_is_a_file_is_an_error_naming_the_path() {
        let dir = scratch("parent");
        let file = dir.join("plain");
        std::fs::write(&file, b"").unwrap();
        let blocked = file.join("sub/out.jsonl");
        let want = file.display().to_string();
        for err in [
            replace(&blocked, |w| w.write_all(b"x")).unwrap_err(),
            Stream::create(&blocked).unwrap_err(),
            append(&blocked, b"x\n").unwrap_err(),
        ] {
            assert!(err.to_string().contains(&want), "{err}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_stream_truncates_and_flushes() {
        let dir = scratch("stream");
        let path = dir.join("deep/dir/m.jsonl");
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, b"stale contents\n").unwrap();
        let mut s = Stream::create(&path).unwrap();
        writeln!(s, "one").unwrap();
        s.flush().unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "one\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_append_writes_whole_lines() {
        let dir = scratch("append");
        let path = dir.join("store/s.jsonl");
        append(&path, b"{\"a\":1}\n").unwrap();
        append(&path, b"{\"b\":2}\n").unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "{\"a\":1}\n{\"b\":2}\n"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
