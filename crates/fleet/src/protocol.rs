//! The coordinator↔worker wire protocol: length-framed JSON over
//! stdin/stdout.
//!
//! Each frame is one JSON document preceded by its byte length:
//!
//! ```text
//! <len>\n
//! <len bytes of JSON>\n
//! ```
//!
//! The explicit length makes truncation detectable — a worker killed
//! mid-frame leaves a short read, which the coordinator treats exactly like
//! EOF (worker death), never as a corrupt half-message.  The payloads are
//! plain `gauntlet_telemetry::json` values, so the protocol adds no
//! serialization machinery beyond what the telemetry schemas already use.
//!
//! Worker stdout carries *only* frames: all narration goes to stderr (or
//! nowhere, under `--quiet`), and campaign events travel inside `event`
//! frames rather than straight to a file.

use gauntlet_telemetry::json::{self, Json};
use std::io::{BufRead, Read, Write};

/// Coordinator → worker messages.
#[derive(Debug, Clone, PartialEq)]
pub enum ToWorker {
    /// The campaign description; sent once, before any assignment.
    Init { spec: Json },
    /// Lease one shard: seed offset `offset` (relative to the spec's
    /// `seed_start`), `count` seeds.
    Assign {
        shard: usize,
        offset: u64,
        count: usize,
    },
    /// Test-only chaos: stop responding (park forever) so the coordinator's
    /// lease timeout fires.  A real stuck worker looks exactly like this.
    Stall,
    /// Orderly exit.
    Shutdown,
}

/// Worker → coordinator messages.
#[derive(Debug, Clone, PartialEq)]
pub enum FromWorker {
    /// First frame after spawn.
    Hello { pid: u64 },
    /// One relayed `gauntlet-events-v1` object, verbatim.
    Event { payload: Json },
    /// A completed shard: the campaign's deterministic `result` document
    /// plus the fleet envelope (candidate corpus entries and the construct
    /// census keys) the merge needs.
    Fragment { shard: usize, body: Json },
}

/// Write one frame.
pub fn write_frame(out: &mut impl Write, body: &str) -> std::io::Result<()> {
    // One `write_all` of the whole frame: writers on both sides share the
    // stream between threads, and a single write keeps frames contiguous.
    let mut frame = String::with_capacity(body.len() + 16);
    frame.push_str(&body.len().to_string());
    frame.push('\n');
    frame.push_str(body);
    frame.push('\n');
    out.write_all(frame.as_bytes())?;
    out.flush()
}

/// Read one frame.  `Ok(None)` is clean EOF (stream closed between frames);
/// a truncated frame — EOF inside the length line or the body — is an
/// `UnexpectedEof` error, and a length that overflows or a body not
/// followed by `\n` is `InvalidData`; callers fold every error into the
/// same death path.
pub fn read_frame(input: &mut impl BufRead) -> std::io::Result<Option<String>> {
    let invalid = |message: String| std::io::Error::new(std::io::ErrorKind::InvalidData, message);
    let mut header = String::new();
    if input.read_line(&mut header)? == 0 {
        return Ok(None);
    }
    let len: usize = header
        .trim()
        .parse()
        .map_err(|_| invalid(format!("bad frame length `{}`", header.trim())))?;
    // Body plus its trailing newline.  The length is untrusted until the
    // bytes arrive, so the buffer grows with what is read, not with `len`.
    let framed = len
        .checked_add(1)
        .ok_or_else(|| invalid(format!("frame length {len} overflows")))?;
    let mut body = Vec::new();
    (&mut *input).take(framed as u64).read_to_end(&mut body)?;
    if body.len() < framed {
        return Err(std::io::ErrorKind::UnexpectedEof.into());
    }
    if body.pop() != Some(b'\n') {
        return Err(invalid(format!(
            "frame body of {len} bytes not followed by a newline"
        )));
    }
    String::from_utf8(body)
        .map(Some)
        .map_err(|error| invalid(error.to_string()))
}

impl ToWorker {
    pub fn to_body(&self) -> String {
        json::render_object(|frame| match self {
            ToWorker::Init { spec } => {
                frame.field("type", &"init".into()).field("spec", spec);
            }
            ToWorker::Assign {
                shard,
                offset,
                count,
            } => {
                frame
                    .field("type", &"assign".into())
                    .field("shard", &(*shard).into())
                    .field("offset", &(*offset).into())
                    .field("count", &(*count).into());
            }
            ToWorker::Stall => {
                frame.field("type", &"stall".into());
            }
            ToWorker::Shutdown => {
                frame.field("type", &"shutdown".into());
            }
        })
    }

    pub fn from_body(body: &str) -> Result<ToWorker, String> {
        let value = json::parse(body)?;
        match value.str_field("type")? {
            "init" => Ok(ToWorker::Init {
                spec: value.field("spec")?.clone(),
            }),
            "assign" => Ok(ToWorker::Assign {
                shard: value.usize_field("shard")?,
                offset: value.u64_field("offset")?,
                count: value.usize_field("count")?,
            }),
            "stall" => Ok(ToWorker::Stall),
            "shutdown" => Ok(ToWorker::Shutdown),
            other => Err(format!("unknown coordinator frame `{other}`")),
        }
    }
}

impl FromWorker {
    pub fn to_body(&self) -> String {
        json::render_object(|frame| match self {
            FromWorker::Hello { pid } => {
                frame
                    .field("type", &"hello".into())
                    .field("pid", &(*pid).into());
            }
            FromWorker::Event { payload } => {
                frame
                    .field("type", &"event".into())
                    .field("payload", payload);
            }
            FromWorker::Fragment { shard, body } => {
                frame
                    .field("type", &"fragment".into())
                    .field("shard", &(*shard).into())
                    .field("body", body);
            }
        })
    }

    pub fn from_body(body: &str) -> Result<FromWorker, String> {
        let value = json::parse(body)?;
        match value.str_field("type")? {
            "hello" => Ok(FromWorker::Hello {
                pid: value.u64_field("pid")?,
            }),
            "event" => Ok(FromWorker::Event {
                payload: value.field("payload")?.clone(),
            }),
            "fragment" => Ok(FromWorker::Fragment {
                shard: value.usize_field("shard")?,
                body: value.field("body")?.clone(),
            }),
            other => Err(format!("unknown worker frame `{other}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip_through_a_pipe() {
        let mut pipe = Vec::new();
        let messages = [
            ToWorker::Init {
                spec: json::parse("{\"workers\":2}").unwrap(),
            },
            ToWorker::Assign {
                shard: 3,
                offset: 60,
                count: 20,
            },
            ToWorker::Stall,
            ToWorker::Shutdown,
        ];
        for message in &messages {
            write_frame(&mut pipe, &message.to_body()).unwrap();
        }
        let mut reader = Cursor::new(pipe);
        for message in &messages {
            let body = read_frame(&mut reader).unwrap().expect("frame present");
            assert_eq!(&ToWorker::from_body(&body).unwrap(), message);
        }
        assert!(read_frame(&mut reader).unwrap().is_none());
    }

    #[test]
    fn worker_frames_round_trip() {
        let messages = [
            FromWorker::Hello { pid: 1234 },
            FromWorker::Event {
                payload: json::parse("{\"event\":\"seed\",\"seed\":7}").unwrap(),
            },
            FromWorker::Fragment {
                shard: 0,
                body: json::parse("{\"result\":{\"total_bugs\":1}}").unwrap(),
            },
        ];
        for message in &messages {
            let body = message.to_body();
            assert_eq!(&FromWorker::from_body(&body).unwrap(), message);
        }
    }

    #[test]
    fn truncated_frames_read_as_errors_not_garbage() {
        let mut pipe = Vec::new();
        write_frame(&mut pipe, "{\"type\":\"stall\"}").unwrap();
        // A worker killed mid-write leaves a dangling prefix.
        pipe.truncate(pipe.len() - 5);
        let mut reader = Cursor::new(pipe);
        assert!(read_frame(&mut reader).is_err());
        assert!(read_frame(&mut Cursor::new(b"notalen\n".to_vec())).is_err());
    }

    /// A header's length sizes nothing before the body arrives: a length
    /// that overflows, or one far beyond the bytes on the pipe, is an error
    /// rather than an overflow or an allocation abort.
    #[test]
    fn oversized_frame_lengths_read_as_errors() {
        for header in ["18446744073709551615", "1000000000000"] {
            let pipe = format!("{header}\n{{}}\n");
            assert!(read_frame(&mut Cursor::new(pipe.into_bytes())).is_err());
        }
    }

    #[test]
    fn a_body_must_end_with_a_newline() {
        assert!(read_frame(&mut Cursor::new(b"2\n{}X".to_vec())).is_err());
        assert_eq!(
            read_frame(&mut Cursor::new(b"2\n{}\n".to_vec())).unwrap(),
            Some("{}".to_string())
        );
    }

    #[test]
    fn frame_bodies_may_contain_newlines() {
        // Length framing, not line framing: embedded newlines (pretty-printed
        // JSON, program sources in corpus entries) pass through intact.
        let body = "{\"type\":\"event\",\"payload\":{\"text\":\"a\\nb\"}}";
        let mut pipe = Vec::new();
        write_frame(&mut pipe, body).unwrap();
        let back = read_frame(&mut Cursor::new(pipe)).unwrap().unwrap();
        assert_eq!(back, body);
    }
}
