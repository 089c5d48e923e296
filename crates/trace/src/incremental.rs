//! Incremental replay over partial buffers: decode what has arrived,
//! suspend mid-stream, resume when more bytes land.
//!
//! [`TraceReplayer::replay`] needs the whole trace in memory before the
//! first event reaches the sink. A daemon ingesting an APTR upload (or
//! `algoprof analyze -` reading a pipe) wants the opposite: feed each
//! network/pipe chunk as it arrives and let analysis overlap ingestion.
//! [`IncrementalReplayer`] provides that as a push-style wrapper around
//! the same decoding core (`TraceReplayer::step`): [`feed`] appends
//! bytes, [`header`] surfaces the decoded [`TraceHeader`] as soon as it
//! is complete (so the caller can compile the program), and [`advance`]
//! delivers every event whose bytes are fully buffered, stopping — not
//! failing — at a partial event.
//!
//! Suspension is safe because every decode arm performs all cursor reads
//! before any shadow-heap or frame mutation; a mid-event
//! [`TraceError::Truncated`] therefore only needs the delta-decoding
//! registers rolled back (see `TraceReplayer::mark`), and the next
//! [`advance`] retries the same event from its first byte.
//!
//! [`feed`]: IncrementalReplayer::feed
//! [`header`]: IncrementalReplayer::header
//! [`advance`]: IncrementalReplayer::advance

use algoprof_vm::{CompiledProgram, EventSink, Heap};

use crate::format::{TraceError, TraceHeader};
use crate::replay::{FrameStacks, ReplayStats, Step, TraceReplayer};
use crate::wire::Cursor;

/// Buffered bytes consumed this far are dropped once the prefix grows
/// past this, keeping steady-state memory proportional to one chunk
/// rather than the whole trace.
const COMPACT_THRESHOLD: usize = 64 * 1024;

/// Push-style trace replayer: feed byte chunks, drain decoded events.
///
/// ```
/// use algoprof_vm::{compile, InstrumentOptions, Interp, NoopProfiler};
/// use algoprof_trace::{IncrementalReplayer, TraceHeader, TraceRecorder};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let src = "class Main { static int main() {
///     int s = 0;
///     for (int i = 0; i < 10; i = i + 1) { s = s + i; }
///     return s;
/// } }";
/// let opts = InstrumentOptions::default();
/// let program = compile(src)?.instrument(&opts);
/// let mut bytes = Vec::new();
/// let mut rec = TraceRecorder::new(&TraceHeader::new(src, &opts, &[]), &mut bytes);
/// Interp::new(&program).run(&mut rec)?;
/// rec.finish()?;
///
/// // Feed the recording one byte at a time, as a slow pipe would.
/// let mut inc = IncrementalReplayer::new();
/// let mut sink = NoopProfiler;
/// let mut compiled = None;
/// for b in bytes {
///     inc.feed(&[b]);
///     if compiled.is_none() {
///         if let Some(h) = inc.header()? {
///             compiled = Some(compile(&h.source)?.instrument(&h.instrument));
///         }
///     }
///     if let Some(p) = &compiled {
///         inc.advance(p, &mut sink)?;
///     }
/// }
/// let stats = inc.finish()?;
/// assert!(stats.events > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct IncrementalReplayer {
    buf: Vec<u8>,
    /// Offset of the first unconsumed byte in `buf`.
    consumed: usize,
    /// Total bytes fed, across compactions.
    fed: u64,
    header: Option<TraceHeader>,
    replayer: TraceReplayer,
    frames: FrameStacks,
    stats: ReplayStats,
    ended: bool,
}

impl IncrementalReplayer {
    /// A replayer awaiting its first chunk.
    pub fn new() -> Self {
        IncrementalReplayer::default()
    }

    /// Appends a chunk of trace bytes.
    pub fn feed(&mut self, chunk: &[u8]) {
        self.fed += chunk.len() as u64;
        self.buf.extend_from_slice(chunk);
    }

    /// Total bytes fed so far.
    pub fn bytes_fed(&self) -> u64 {
        self.fed
    }

    /// Whether the `End` tag has been decoded.
    pub fn is_ended(&self) -> bool {
        self.ended
    }

    /// Events delivered so far.
    pub fn stats(&self) -> ReplayStats {
        self.stats
    }

    /// The shadow heap in its current (partially rebuilt) state.
    pub fn heap(&self) -> &Heap {
        self.replayer.heap()
    }

    /// The trace header, once enough bytes have arrived to decode it;
    /// `Ok(None)` means "feed more". Compile the returned header's
    /// source under its instrumentation options to obtain the program
    /// for [`IncrementalReplayer::advance`].
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] when the buffered prefix is already
    /// malformed (bad magic, unsupported version, corrupt header).
    pub fn header(&mut self) -> Result<Option<&TraceHeader>, TraceError> {
        if self.header.is_none() {
            match TraceHeader::decode(&self.buf) {
                Ok((h, off)) => {
                    self.header = Some(h);
                    self.consumed = off;
                }
                Err(TraceError::Truncated) => return Ok(None),
                Err(e) => return Err(e),
            }
        }
        Ok(self.header.as_ref())
    }

    /// Delivers every fully buffered event to `sink`, returning how many
    /// were delivered. Stops cleanly at a partial event (resume by
    /// feeding more bytes and calling again). `program` must be the
    /// compiled form of the header returned by
    /// [`IncrementalReplayer::header`]; calling before the header is
    /// decoded is a no-op returning 0.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Corrupt`] for structurally invalid events,
    /// unbalanced repetitions at `End`, or bytes after the `End` tag.
    pub fn advance<S: EventSink>(
        &mut self,
        program: &CompiledProgram,
        sink: &mut S,
    ) -> Result<u64, TraceError> {
        if self.header.is_none() {
            return Ok(0);
        }
        if self.consumed >= COMPACT_THRESHOLD {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
        let mut delivered = 0;
        loop {
            if self.ended {
                if self.consumed < self.buf.len() {
                    return Err(TraceError::Corrupt(format!(
                        "{} trailing bytes after End tag",
                        self.buf.len() - self.consumed
                    )));
                }
                return Ok(delivered);
            }
            let mark = self.replayer.mark();
            let mut c = Cursor::new(&self.buf[self.consumed..]);
            match self.replayer.step(program, &mut c, &mut self.frames, sink) {
                Ok(Step::Event) => {
                    self.consumed += c.pos();
                    self.stats.events += 1;
                    delivered += 1;
                }
                Ok(Step::End) => {
                    self.consumed += c.pos();
                    self.ended = true;
                    if self.frames.open() != 0 {
                        return Err(TraceError::Corrupt(format!(
                            "End tag with {} repetitions still open",
                            self.frames.open()
                        )));
                    }
                }
                Err(TraceError::Truncated) => {
                    self.replayer.restore(mark);
                    return Ok(delivered);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Declares the stream complete and returns the final stats.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Truncated`] when the `End` tag was never
    /// decoded (the upload stopped mid-stream) and
    /// [`TraceError::Corrupt`] for bytes after it.
    pub fn finish(&self) -> Result<ReplayStats, TraceError> {
        if !self.ended {
            return Err(TraceError::Truncated);
        }
        if self.consumed < self.buf.len() {
            return Err(TraceError::Corrupt(format!(
                "{} trailing bytes after End tag",
                self.buf.len() - self.consumed
            )));
        }
        Ok(self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{read_header, TraceRecorder, TraceReplayer};
    use algoprof_vm::{compile, Event, EventCx, InstrumentOptions, Interp, NoopProfiler};

    const SRC: &str = "class Main { static int main() {
        Node head = null;
        int[] a = new int[6];
        int s = 0;
        for (int i = 0; i < 6; i = i + 1) {
            Node x = new Node();
            x.v = i;
            x.next = head;
            head = x;
            a[i] = i + 1;
        }
        while (head != null) { s = s + head.v; head = head.next; }
        print(s);
        return s;
    } }
    class Node { int v; Node next; }";

    fn record() -> Vec<u8> {
        let opts = InstrumentOptions::default();
        let program = compile(SRC).expect("compiles").instrument(&opts);
        let mut bytes = Vec::new();
        let mut rec = TraceRecorder::new(&TraceHeader::new(SRC, &opts, &[]), &mut bytes);
        Interp::new(&program).run(&mut rec).expect("runs");
        rec.finish().expect("finishes");
        bytes
    }

    #[derive(Debug, Default, PartialEq, Eq)]
    struct Transcript(Vec<String>);

    impl EventSink for Transcript {
        fn event(&mut self, ev: &Event, cx: &EventCx<'_>) {
            if matches!(ev, Event::Instruction { .. }) {
                return;
            }
            self.0.push(format!("{ev:?} @{}", cx.heap.epoch()));
        }
    }

    /// Feeds `bytes` in chunks of `n` and returns the transcript.
    fn incremental_transcript(bytes: &[u8], n: usize) -> (Transcript, ReplayStats) {
        let mut inc = IncrementalReplayer::new();
        let mut sink = Transcript::default();
        let mut compiled = None;
        for chunk in bytes.chunks(n) {
            inc.feed(chunk);
            if compiled.is_none() {
                if let Some(h) = inc.header().expect("header ok") {
                    compiled = Some(
                        compile(&h.source)
                            .expect("header source compiles")
                            .instrument(&h.instrument),
                    );
                }
            }
            if let Some(p) = &compiled {
                inc.advance(p, &mut sink).expect("advances");
            }
        }
        let stats = inc.finish().expect("complete stream");
        (sink, stats)
    }

    #[test]
    fn chunked_replay_matches_batch_replay_at_every_chunk_size() {
        let bytes = record();
        let (header, events) = read_header(&bytes).expect("header");
        let program = compile(&header.source)
            .expect("compiles")
            .instrument(&header.instrument);
        let mut batch = Transcript::default();
        let batch_stats = TraceReplayer::new()
            .replay(&program, events, &mut batch)
            .expect("replays");
        for n in [1, 2, 3, 7, 64, bytes.len()] {
            let (t, stats) = incremental_transcript(&bytes, n);
            assert_eq!(t, batch, "chunk size {n} diverged");
            assert_eq!(stats.events, batch_stats.events);
        }
    }

    #[test]
    fn header_surfaces_only_when_complete() {
        let bytes = record();
        let (_, events) = read_header(&bytes).expect("header");
        let header_len = bytes.len() - events.len();
        let mut inc = IncrementalReplayer::new();
        inc.feed(&bytes[..header_len - 1]);
        assert!(inc.header().expect("no error yet").is_none());
        inc.feed(&bytes[header_len - 1..header_len]);
        let h = inc.header().expect("ok").expect("decoded").clone();
        assert_eq!(h.source, SRC);
    }

    #[test]
    fn unfinished_stream_reports_truncated() {
        let bytes = record();
        let mut inc = IncrementalReplayer::new();
        inc.feed(&bytes[..bytes.len() - 1]);
        let h = inc.header().expect("ok").expect("decoded").clone();
        let program = compile(&h.source)
            .expect("compiles")
            .instrument(&h.instrument);
        inc.advance(&program, &mut NoopProfiler).expect("advances");
        assert!(!inc.is_ended());
        assert_eq!(inc.finish(), Err(TraceError::Truncated));
    }

    #[test]
    fn trailing_bytes_after_end_are_corrupt() {
        let mut bytes = record();
        bytes.push(0x01);
        let mut inc = IncrementalReplayer::new();
        inc.feed(&bytes);
        let h = inc.header().expect("ok").expect("decoded").clone();
        let program = compile(&h.source)
            .expect("compiles")
            .instrument(&h.instrument);
        let err = inc.advance(&program, &mut NoopProfiler).unwrap_err();
        assert!(matches!(err, TraceError::Corrupt(_)));
    }

    #[test]
    fn bad_magic_is_reported_from_header() {
        let mut inc = IncrementalReplayer::new();
        inc.feed(b"NOPE");
        assert_eq!(inc.header(), Err(TraceError::BadMagic));
    }

    #[test]
    fn compaction_preserves_the_stream() {
        // Feed a trace 1 byte at a time through a tiny threshold clone by
        // just exercising the default path on a real trace; the public
        // behaviour contract is chunked == batch, covered above. Here we
        // additionally check bytes_fed accounting survives compaction.
        let bytes = record();
        let (t, _) = incremental_transcript(&bytes, 1);
        assert!(!t.0.is_empty());
        let mut inc = IncrementalReplayer::new();
        inc.feed(&bytes);
        assert_eq!(inc.bytes_fed(), bytes.len() as u64);
    }
}
