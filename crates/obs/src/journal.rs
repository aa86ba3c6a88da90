//! The JSONL run journal: one serialized [`Record`] per line, manifest
//! first. A journal you can tail is also a journal you can replay.
//!
//! Journals come in two framing disciplines. *Unframed* journals are
//! the original format: raw record lines, the one-shot CLI default, and
//! byte-pinned by the golden tests. *Checked* journals (the daemon's
//! format) frame every line with a CRC32C field (see [`crate::crc`])
//! and stamp the manifest line with an `integrity` marker, so mid-file
//! corruption is detected and localized to one record instead of
//! poisoning the whole file. The tolerant reader accepts both, and a
//! checked journal that has rotted reports [`CorruptRecord`]s with byte
//! offsets rather than an error.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};

use crate::crc::{check_line, claims_framing, frame_line, LineIntegrity, INTEGRITY_CRC32C};
use crate::event::{Event, Record};
use crate::io::StoreIo;
use crate::sink::EventSink;

/// An [`EventSink`] that appends each record as one JSON line.
pub struct JournalWriter {
    out: Mutex<BufWriter<Box<dyn Write + Send>>>,
    /// When set, every line is CRC32C-framed and the manifest line is
    /// stamped with the `integrity` marker.
    checked: bool,
}

impl JournalWriter {
    /// Creates (truncating) the journal file at `path`.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(JournalWriter::to_writer(Box::new(file)))
    }

    /// Creates (truncating) the journal through a [`StoreIo`], framing
    /// every line when `checked` — the daemon's journal path.
    pub fn create_with(
        io: &Arc<dyn StoreIo>,
        path: impl AsRef<Path>,
        checked: bool,
    ) -> io::Result<Self> {
        let out = io.open_truncate(path.as_ref())?;
        Ok(JournalWriter {
            out: Mutex::new(BufWriter::new(out)),
            checked,
        })
    }

    /// Opens the journal for appending through a [`StoreIo`]. Used by
    /// resume: the replayed prefix stays in place and the continued run
    /// extends it. Pass the framing discipline the existing file uses (a
    /// recovered journal reports it via [`ParsedJournal::checked`]) so
    /// appended lines match the prefix.
    pub fn append_with(
        io: &Arc<dyn StoreIo>,
        path: impl AsRef<Path>,
        checked: bool,
    ) -> io::Result<Self> {
        let out = io.open_append(path.as_ref())?;
        Ok(JournalWriter {
            out: Mutex::new(BufWriter::new(out)),
            checked,
        })
    }

    /// Journals onto an arbitrary writer (unframed).
    pub fn to_writer(out: Box<dyn Write + Send>) -> Self {
        JournalWriter {
            out: Mutex::new(BufWriter::new(out)),
            checked: false,
        }
    }
}

impl EventSink for JournalWriter {
    fn record(&self, rec: &Record) {
        let mut line = rec.to_json();
        if self.checked {
            if matches!(rec.event, Event::RunStarted { .. }) {
                // The manifest line declares the file's discipline, so
                // a reader knows every line is supposed to verify even
                // if the first frame itself is damaged.
                line = format!(
                    "{},\"integrity\":\"{INTEGRITY_CRC32C}\"}}",
                    &line[..line.len() - 1]
                );
            }
            line = frame_line(&line);
        }
        let mut out = self.out.lock().unwrap_or_else(PoisonError::into_inner);
        // A full disk mid-run should not abort the search; the final
        // flush (or drop) surfaces nothing either, matching eprintln!
        // semantics for the observability side channel.
        let _ = writeln!(out, "{line}");
    }

    fn flush(&self) {
        let _ = self
            .out
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .flush();
    }
}

/// A parse failure while reading a journal, with its 1-based line number.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "journal line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for JournalError {}

/// The crash scar at the end of a killed run's journal: a final line cut
/// mid-write (no terminating newline). Distinct from schema drift — a
/// *terminated* malformed line anywhere is still a hard error.
#[derive(Debug, Clone, PartialEq)]
pub struct TruncatedTail {
    /// 1-based line number of the partial line.
    pub line: usize,
    /// The partial text, as found.
    pub text: String,
}

/// One record-sized hole in an otherwise readable journal or WAL: a
/// terminated line that failed its integrity check. Localized by byte
/// offset so `fsck --repair` can truncate to the last good prefix.
#[derive(Debug, Clone, PartialEq)]
pub struct CorruptRecord {
    /// 1-based line number of the damaged line.
    pub line: usize,
    /// Byte offset where the damaged line starts.
    pub offset: u64,
    /// Byte length of the damaged line, including its newline.
    pub len: u64,
    /// What failed: checksum mismatch, missing frame, bad UTF-8, ...
    pub reason: String,
}

impl std::fmt::Display for CorruptRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "line {} (bytes {}..{}): {}",
            self.line,
            self.offset,
            self.offset + self.len,
            self.reason
        )
    }
}

/// Outcome of a tolerant journal parse: every complete record, plus the
/// truncated tail if the journal ends in one, plus any mid-file records
/// that failed verification in a checksummed file.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedJournal {
    /// The complete, valid records.
    pub records: Vec<Record>,
    /// The crash scar, when the final line was cut mid-write.
    pub truncated_tail: Option<TruncatedTail>,
    /// Byte length of the valid prefix (everything before the tail).
    /// Resume truncates the journal file to this length before
    /// appending, so the continued journal stays well-formed.
    pub valid_bytes: u64,
    /// Terminated lines that failed their integrity check. Only a
    /// checksummed file can report these; an empty vec means every
    /// terminated record verified (or the file predates framing).
    pub corrupt: Vec<CorruptRecord>,
    /// Whether the file uses CRC32C framing (any line framed, or the
    /// manifest carries the integrity marker). Appenders should match
    /// this discipline.
    pub checked: bool,
}

/// What a [`FramedLines`] walk leaves behind: every integrity finding
/// and the extent of the valid prefix.
#[derive(Debug, Default)]
pub struct LineScan {
    /// Terminated lines that failed verification, by byte offset.
    pub corrupt: Vec<CorruptRecord>,
    /// The crash scar, when the final line was cut mid-write.
    pub torn_tail: Option<TruncatedTail>,
    /// Byte length of the terminated prefix (the scar starts here).
    pub valid_bytes: u64,
    /// Whether the file uses CRC32C framing (any line framed, or one
    /// claims the framing discipline).
    pub checked: bool,
}

/// One terminated line a [`FramedLines`] walk accepted: framed and
/// verified, or a legacy unframed line in an unframed file.
#[derive(Debug)]
pub struct FramedLine<'a> {
    /// 1-based line number.
    pub number: usize,
    /// Byte offset where the line starts.
    pub offset: u64,
    /// The line without its terminator.
    pub text: &'a str,
    len: u64,
}

/// The one integrity walk over JSONL bytes, behind both the journal
/// reader and the WAL fold. Yields each terminated line that verifies
/// (or is legacy unframed); skips blank lines; turns a final line cut
/// mid-write into a [`TruncatedTail`]; and records every terminated
/// line that fails verification — CRC mismatch, stripped frame in a
/// checked file, invalid UTF-8 — as a [`CorruptRecord`] instead of
/// yielding it. A caller that rejects a yielded line for its own
/// reasons records that with [`FramedLines::reject`]; [`finish`]
/// returns the findings in line order.
///
/// [`finish`]: FramedLines::finish
#[derive(Debug)]
pub struct FramedLines<'a> {
    bytes: &'a [u8],
    pos: usize,
    number: usize,
    noun: &'static str,
    scan: LineScan,
}

impl<'a> FramedLines<'a> {
    /// Walks `bytes`; `noun` names the file kind in the stripped-frame
    /// reason ("unframed line in a checksummed {noun} ...").
    pub fn new(bytes: &'a [u8], noun: &'static str) -> Self {
        FramedLines {
            bytes,
            pos: 0,
            number: 0,
            noun,
            scan: LineScan::default(),
        }
    }

    /// Records a yielded line as corrupt for a caller-specific reason.
    pub fn reject(&mut self, line: &FramedLine<'_>, reason: String) {
        self.scan.corrupt.push(CorruptRecord {
            line: line.number,
            offset: line.offset,
            len: line.len,
            reason,
        });
    }

    /// Ends the walk and returns what it found.
    pub fn finish(self) -> LineScan {
        self.scan
    }
}

impl<'a> Iterator for FramedLines<'a> {
    type Item = FramedLine<'a>;

    fn next(&mut self) -> Option<FramedLine<'a>> {
        while self.pos < self.bytes.len() {
            let rest = &self.bytes[self.pos..];
            self.number += 1;
            let Some(end) = rest.iter().position(|&b| b == b'\n') else {
                // Only the final segment can be unterminated: the crash scar.
                self.scan.torn_tail = Some(TruncatedTail {
                    line: self.number,
                    text: String::from_utf8_lossy(rest).into_owned(),
                });
                self.pos = self.bytes.len();
                return None;
            };
            let mut line = FramedLine {
                number: self.number,
                offset: self.pos as u64,
                text: "",
                len: end as u64 + 1,
            };
            self.pos += end + 1;
            self.scan.valid_bytes = self.pos as u64;
            let raw = &rest[..end];
            match std::str::from_utf8(raw.strip_suffix(b"\r").unwrap_or(raw)) {
                // Bit rot can push a byte outside UTF-8 entirely; that
                // is disk damage, not schema drift, whatever the file's
                // framing discipline.
                Err(e) => self.reject(&line, format!("invalid UTF-8 ({e})")),
                Ok(text) if text.trim().is_empty() => {}
                Ok(text) => {
                    line.text = text;
                    match check_line(text) {
                        LineIntegrity::Valid => {
                            self.scan.checked = true;
                            return Some(line);
                        }
                        LineIntegrity::Mismatch { stored, computed } => {
                            self.scan.checked = true;
                            self.reject(
                                &line,
                                format!(
                                    "checksum mismatch (stored {stored:08x}, computed {computed:08x})"
                                ),
                            );
                        }
                        LineIntegrity::Unframed if self.scan.checked || claims_framing(text) => {
                            self.scan.checked = true;
                            let reason = format!(
                                "unframed line in a checksummed {} (damaged or stripped crc)",
                                self.noun
                            );
                            self.reject(&line, reason);
                        }
                        // A pre-CRC legacy line: the caller's to judge.
                        LineIntegrity::Unframed => return Some(line),
                    }
                }
            }
        }
        None
    }
}

/// Parses journal bytes (as produced by [`JournalWriter`]) back into
/// records, tolerant of damage: the [`FramedLines`] walk turns a final
/// line cut mid-write (crash signature: unterminated, whether or not it
/// happens to parse) into a clean [`TruncatedTail`], and in a
/// checksummed file terminated lines that fail verification into
/// [`CorruptRecord`]s instead of poisoning the parse. Every line the
/// walk accepts must parse as a known record: a terminated malformed
/// line in an unframed file is schema drift and fails, as does a line
/// whose checksum verifies but whose payload does not parse (the writer
/// itself was broken, not the disk).
pub fn parse_journal_tolerant_bytes(bytes: &[u8]) -> Result<ParsedJournal, JournalError> {
    let mut lines = FramedLines::new(bytes, "file");
    let mut records = Vec::new();
    for line in lines.by_ref() {
        records.push(
            Record::from_json(line.text).map_err(|message| JournalError {
                line: line.number,
                message,
            })?,
        );
    }
    let scan = lines.finish();
    Ok(ParsedJournal {
        records,
        truncated_tail: scan.torn_tail,
        valid_bytes: scan.valid_bytes,
        corrupt: scan.corrupt,
        checked: scan.checked,
    })
}

/// Reads the journal file at `path` with [`parse_journal_tolerant_bytes`].
/// The outer result is I/O, the inner one the schema check. Reads raw
/// bytes, so a single non-UTF8 rotted byte yields a localized
/// [`CorruptRecord`] rather than an opaque io error.
pub fn read_journal_tolerant(
    path: impl AsRef<Path>,
) -> io::Result<Result<ParsedJournal, JournalError>> {
    Ok(parse_journal_tolerant_bytes(&std::fs::read(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    fn sample() -> Record {
        Record {
            hw_sample: Some(1),
            layer: Some(2),
            event: Event::ScheduleEvaluated {
                step: 0,
                delay_cycles: 123.0,
                energy_nj: 4.5,
            },
        }
    }

    #[test]
    fn writer_emits_one_line_per_record_and_reader_inverts_it() {
        let path = std::env::temp_dir().join(format!(
            "spotlight-obs-journal-{}.jsonl",
            std::process::id()
        ));
        let writer = JournalWriter::create(&path).unwrap();
        writer.record(&sample());
        writer.record(&Record {
            hw_sample: None,
            layer: None,
            event: Event::BestImproved { cost: 9.0 },
        });
        writer.flush();
        let parsed = read_journal_tolerant(&path).unwrap().unwrap();
        assert!(parsed.truncated_tail.is_none() && parsed.corrupt.is_empty());
        assert!(!parsed.checked);
        assert_eq!(parsed.records.len(), 2);
        assert_eq!(parsed.records[0], sample());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn parse_journal_reports_line_numbers() {
        let text = format!("{}\n\nnot json\n", sample().to_json());
        let err = parse_journal_tolerant_bytes(text.as_bytes()).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.to_string().contains("journal line 3"), "{err}");
    }

    #[test]
    fn tolerant_parse_returns_clean_truncated_tail() {
        let good = sample().to_json();
        let text = format!("{good}\n{good}\n{{\"type\":\"chec");
        let parsed = parse_journal_tolerant_bytes(text.as_bytes()).unwrap();
        assert_eq!(parsed.records.len(), 2);
        let tail = parsed.truncated_tail.expect("tail expected");
        assert_eq!(tail.line, 3);
        assert_eq!(tail.text, "{\"type\":\"chec");
        // valid_bytes covers exactly the two complete lines.
        assert_eq!(parsed.valid_bytes as usize, good.len() * 2 + 2);
    }

    #[test]
    fn tolerant_parse_without_tail_reports_none() {
        let good = sample().to_json();
        let text = format!("{good}\n");
        let parsed = parse_journal_tolerant_bytes(text.as_bytes()).unwrap();
        assert_eq!(parsed.records.len(), 1);
        assert!(parsed.truncated_tail.is_none());
        assert_eq!(parsed.valid_bytes as usize, text.len());
    }

    #[test]
    fn tolerant_parse_treats_unterminated_valid_line_as_tail() {
        // A crash can land exactly between the JSON text and its
        // newline; the record is still a scar, not data.
        let good = sample().to_json();
        let text = format!("{good}\n{good}");
        let parsed = parse_journal_tolerant_bytes(text.as_bytes()).unwrap();
        assert_eq!(parsed.records.len(), 1);
        assert!(parsed.truncated_tail.is_some());
    }

    #[test]
    fn tolerant_parse_still_rejects_terminated_garbage() {
        let good = sample().to_json();
        let text = format!("not json\n{good}\n");
        let err = parse_journal_tolerant_bytes(text.as_bytes()).unwrap_err();
        assert_eq!(err.line, 1);
    }

    fn manifest_record() -> Record {
        let manifest = crate::event::RunManifest {
            seed: 7,
            variant: "Spotlight".into(),
            backend: "sim".into(),
            ranges: "ParamRanges { .. }".into(),
            budget: "Budget { .. }".into(),
            hw_samples: 2,
            sw_samples: 4,
            threads: 1,
            git: "unknown".into(),
            objective: "edp".into(),
            scale: "edge".into(),
            models: "resnet18".into(),
            faults: String::new(),
            noise: String::new(),
            replicates: 1,
            robust_agg: "mean".into(),
            fidelity: String::new(),
        };
        Record {
            hw_sample: None,
            layer: None,
            event: Event::RunStarted {
                manifest: Box::new(manifest),
            },
        }
    }

    #[test]
    fn checked_writer_frames_every_line_and_stamps_the_manifest() {
        let dir = std::env::temp_dir().join(format!(
            "spotlight-obs-checked-journal-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.jsonl");
        let io: Arc<dyn StoreIo> = Arc::new(crate::io::RealFs);
        let writer = JournalWriter::create_with(&io, &path, true).unwrap();
        writer.record(&manifest_record());
        writer.record(&sample());
        writer.flush();
        drop(writer);

        let text = std::fs::read_to_string(&path).unwrap();
        for line in text.lines() {
            assert_eq!(check_line(line), LineIntegrity::Valid, "unframed: {line}");
        }
        assert!(text
            .lines()
            .next()
            .unwrap()
            .contains("\"integrity\":\"crc32c\""));

        // Round trip: the reader sees a checked, clean file, and the
        // crc field is additive (the records compare equal).
        let parsed = read_journal_tolerant(&path).unwrap().unwrap();
        assert!(parsed.checked);
        assert!(parsed.corrupt.is_empty() && parsed.truncated_tail.is_none());
        assert_eq!(parsed.records, vec![manifest_record(), sample()]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_in_a_checked_file_is_localized_not_fatal() {
        let good = frame_line(&sample().to_json());
        let bad = good.replace("delay_cycles", "delay_cycLes");
        let text = format!("{good}\n{bad}\n{good}\n");
        let parsed = parse_journal_tolerant_bytes(text.as_bytes()).unwrap();
        assert!(parsed.checked);
        assert_eq!(parsed.records.len(), 2, "clean neighbors still parse");
        assert_eq!(parsed.corrupt.len(), 1);
        let c = &parsed.corrupt[0];
        assert_eq!(c.line, 2);
        assert_eq!(c.offset as usize, good.len() + 1);
        assert_eq!(c.len as usize, bad.len() + 1);
        assert!(c.reason.contains("checksum mismatch"), "{}", c.reason);
    }

    #[test]
    fn stripped_frame_in_a_checked_file_is_corrupt() {
        let framed = frame_line(&sample().to_json());
        // Line 2 lost its frame entirely (e.g. truncated rewrite).
        let text = format!("{framed}\n{}\n", sample().to_json());
        let parsed = parse_journal_tolerant_bytes(text.as_bytes()).unwrap();
        assert_eq!(parsed.corrupt.len(), 1);
        assert!(parsed.corrupt[0].reason.contains("unframed line"));
    }

    #[test]
    fn damaged_frame_suffix_on_the_first_line_is_still_caught() {
        // A flip inside the crc suffix makes the line look unframed;
        // the residual ",\"crc\":\"" text still testifies to framing.
        let framed = frame_line(&sample().to_json());
        let damaged = framed.replace("\"crc\":\"", "\"crc\":4");
        assert_eq!(check_line(&damaged), LineIntegrity::Unframed);
        let parsed = parse_journal_tolerant_bytes(format!("{damaged}\n").as_bytes()).unwrap();
        assert_eq!(parsed.corrupt.len(), 1);
    }

    #[test]
    fn legacy_unframed_files_still_parse_without_corruption_verdicts() {
        let good = sample().to_json();
        let parsed = parse_journal_tolerant_bytes(format!("{good}\n{good}\n").as_bytes()).unwrap();
        assert!(!parsed.checked);
        assert!(parsed.corrupt.is_empty());
        assert_eq!(parsed.records.len(), 2);
    }

    #[test]
    fn non_utf8_bit_rot_is_a_localized_corrupt_record() {
        let good = sample().to_json();
        let mut bytes = format!("{good}\n{good}\n{good}\n").into_bytes();
        bytes[good.len() + 3] = 0xFF;
        let parsed = parse_journal_tolerant_bytes(&bytes).unwrap();
        assert_eq!(parsed.records.len(), 2);
        assert_eq!(parsed.corrupt.len(), 1);
        assert_eq!(parsed.corrupt[0].line, 2);
        assert!(parsed.corrupt[0].reason.contains("invalid UTF-8"));
    }

    #[test]
    fn walker_keeps_caller_rejections_in_line_order() {
        let good = frame_line(&sample().to_json());
        let bad = good.replace("delay_cycles", "delay_cycLes");
        let text = format!("{good}\r\n{bad}\n\n{good}\n{{\"cut");
        let mut lines = FramedLines::new(text.as_bytes(), "file");
        let mut yielded = Vec::new();
        while let Some(line) = lines.next() {
            yielded.push(line.number);
            if line.number == 4 {
                lines.reject(&line, "refused by the caller".to_string());
            }
            // CRLF terminators are stripped before verification.
            assert_eq!(line.text, good);
        }
        assert_eq!(yielded, vec![1, 4]);
        let scan = lines.finish();
        let found: Vec<(usize, &str)> = scan
            .corrupt
            .iter()
            .map(|c| (c.line, &c.reason[..8]))
            .collect();
        assert_eq!(found, vec![(2, "checksum"), (4, "refused ")]);
        assert_eq!(scan.valid_bytes as usize, text.len() - 5);
        assert_eq!(scan.torn_tail.map(|t| t.line), Some(5));
        assert!(scan.checked);
    }

    #[test]
    fn append_extends_an_existing_journal() {
        let path = std::env::temp_dir().join(format!(
            "spotlight-obs-journal-append-{}.jsonl",
            std::process::id()
        ));
        let writer = JournalWriter::create(&path).unwrap();
        writer.record(&sample());
        writer.flush();
        drop(writer);
        let io: Arc<dyn StoreIo> = Arc::new(crate::io::RealFs);
        let appender = JournalWriter::append_with(&io, &path, false).unwrap();
        appender.record(&sample());
        appender.flush();
        let parsed = read_journal_tolerant(&path).unwrap().unwrap();
        assert!(parsed.truncated_tail.is_none() && parsed.corrupt.is_empty());
        assert_eq!(parsed.records, vec![sample(), sample()]);
        std::fs::remove_file(&path).ok();
    }
}
