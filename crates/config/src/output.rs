//! The one writer: every file the simulator leaves behind (snapshots,
//! the counters file, NoC traces, heat-map frames, metrics streams, the
//! DSE store) is written here. Each entry point creates the missing
//! parent directories, and every error names the path it failed on.
//! Every CSV line, to a file or to stdout, is written here too, from its
//! record's serde form ([`csv_header`], [`csv_row`], [`csv_table`]).

use serde::{Serialize, Value};
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

/// The CSV header line of `record`: the keys of its serde form, in field
/// order, ending in a newline. A field that is itself a record
/// contributes its own columns in its place.
pub fn csv_header(record: &impl Serialize) -> String {
    csv_line(record, true)
}

/// The CSV row line of `record`, its values in [`csv_header`]'s order:
/// numbers in the JSONL stream's form (what `serde_json` writes), strings
/// as they are. A cell holding a `,`, a `"` or a line break is quoted per
/// RFC 4180, its quotes doubled.
pub fn csv_row(record: &impl Serialize) -> String {
    csv_line(record, false)
}

/// A CSV table: the header of `T::default()` (so an empty table still
/// names its columns), then one row per record.
pub fn csv_table<T: Serialize + Default>(records: &[T]) -> String {
    let mut out = csv_header(&T::default());
    for record in records {
        out.push_str(&csv_row(record));
    }
    out
}

fn csv_line(record: &impl Serialize, header: bool) -> String {
    let mut line = String::new();
    push_cells(&record.to_value(), "", header, &mut line);
    // every cell ends in a comma; the last one's becomes the newline
    line.pop();
    line.push('\n');
    line
}

fn push_cells(value: &Value, key: &str, header: bool, line: &mut String) {
    let json;
    let text = match value {
        Value::Object(fields) => {
            for (key, value) in fields.iter() {
                push_cells(value, key, header, line);
            }
            return;
        }
        _ if header => key,
        Value::String(s) => s,
        _ => {
            json = serde_json::to_string(value).expect("a serde value renders as JSON");
            &json
        }
    };
    if text.contains([',', '"', '\n', '\r']) {
        line.push('"');
        line.push_str(&text.replace('"', "\"\""));
        line.push('"');
    } else {
        line.push_str(text);
    }
    line.push(',');
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

    #[derive(Serialize, Default)]
    struct Point {
        label: String,
        count: u64,
        delta: i64,
        mean: f64,
    }

    #[derive(Serialize, Default)]
    struct Labelled {
        series: String,
        point: Point,
    }

    fn point(label: &str) -> Point {
        Point {
            label: label.to_string(),
            count: 3,
            delta: -2,
            mean: 2.0,
        }
    }

    /// The cells of one CSV line, read per RFC 4180.
    fn cells(line: &str) -> Vec<String> {
        let line = line.strip_suffix('\n').expect("a whole line");
        let mut cells = vec![String::new()];
        let mut quoted = false;
        let mut chars = line.chars().peekable();
        while let Some(c) = chars.next() {
            match c {
                '"' if quoted && chars.peek() == Some(&'"') => {
                    chars.next();
                    cells.last_mut().unwrap().push('"');
                }
                '"' => quoted = !quoted,
                ',' if !quoted => cells.push(String::new()),
                c => cells.last_mut().unwrap().push(c),
            }
        }
        cells
    }

    #[test]
    fn a_record_is_its_keys_then_its_values_in_field_order() {
        assert_eq!(csv_header(&point("a")), "label,count,delta,mean\n");
        assert_eq!(csv_row(&point("a")), "a,3,-2,2.0\n");
        let third = Point {
            mean: 1.0 / 3.0,
            ..point("a")
        };
        let json = serde_json::to_string(&third).unwrap();
        assert!(json.ends_with(&format!(":{}}}", cells(&csv_row(&third))[3])));
        let labelled = Labelled {
            series: "mesh".to_string(),
            point: point("a"),
        };
        assert_eq!(csv_header(&labelled), "series,label,count,delta,mean\n");
        assert_eq!(csv_row(&labelled), "mesh,a,3,-2,2.0\n");
    }

    #[test]
    fn a_label_holding_a_comma_and_a_quote_reads_back_as_one_cell() {
        for label in ["32T/Ch, 256KiB", "the \"big\" one, again", "two\nlines"] {
            let row = csv_row(&point(label));
            assert!(row.starts_with('"'), "{row}");
            assert_eq!(cells(&row), [label, "3", "-2", "2.0"], "{row}");
        }
    }

    #[test]
    fn a_table_names_its_columns_even_when_empty() {
        assert_eq!(csv_table::<Point>(&[]), "label,count,delta,mean\n");
        assert_eq!(
            csv_table(&[point("a"), point("b")]),
            "label,count,delta,mean\na,3,-2,2.0\nb,3,-2,2.0\n"
        );
    }
}
