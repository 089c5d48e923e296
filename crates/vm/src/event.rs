//! The unified profiling event stream: one [`Event`] enum, one
//! [`EventSink`] trait, composable sinks.
//!
//! Every observation the interpreter (or the trace replayer) can make is a
//! variant of [`Event`]; every consumer — AlgoProf, the trace recorder, the
//! calling-context-tree profiler, ad-hoc test sinks — implements the
//! single-method [`EventSink`] trait. Sinks compose statically:
//!
//! * [`Tee<A, B>`] delivers each event to `A` first, then to `B`;
//! * [`Fanout<S>`] delivers each event to a vector of sinks in index
//!   order (slot 0 first).
//!
//! Each sink declares the [`EventKind`]s it reads in
//! [`EventSink::INTERESTS`]; the interpreter and [`Tee`] skip the rest
//! (see the trait docs).
//!
//! Delivery order is deterministic and documented because recorded traces
//! must be byte-identical regardless of which other sinks observe the same
//! run, and because AlgoProf's input identification reads the heap at event
//! time — all sinks in a composition see the *same* heap state for the same
//! event.
//!
//! Heap-mutation variants ([`Event::ObjectAlloc`], [`Event::FieldWrite`],
//! [`Event::ArrayWrite`]) fire on **every** mutation and carry a `tracked`
//! flag saying whether the instrumentation pass flagged the program element
//! (recursive class, recursive field, `track_arrays`). This merges the old
//! `ProfilerHooks` design where each mutation fired a "raw" hook (always)
//! and a "cooked" hook (tracked only) back to back: one event now carries
//! the ref, class/length, slot, and value that both families used to split
//! between them, and the interpreter emits it exactly once per write.
//! Read-style variants ([`Event::FieldRead`], [`Event::ArrayRead`],
//! [`Event::InputRead`], [`Event::OutputWrite`]) and the repetition events
//! keep their historical gating: they are emitted only when the program
//! element is tracked, so an uninstrumented run stays silent.

use crate::bytecode::{ClassId, CompiledProgram, ElemKind, FieldId, FuncId, LoopId, Opcode};
use crate::heap::{ArrRef, Heap, ObjRef, Value};
use crate::json::Json;

/// Identifies a guest thread. Thread 0 is the main thread; spawned
/// threads get dense ids in spawn order, which the deterministic
/// scheduler makes reproducible across runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ThreadId(pub u32);

impl ThreadId {
    /// The main thread, where execution starts.
    pub const MAIN: ThreadId = ThreadId(0);

    /// Returns the id as a usize index (ids are dense).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ThreadId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A single profiling event, as defined by the paper's §3 event taxonomy:
/// repetition events (method/loop), cost events (instructions, accesses,
/// creations, I/O), and heap-mutation events (which double as the shadow
/// heap's replication stream).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// An instrumented function was entered (frame already pushed).
    MethodEntry {
        /// The function entered.
        func: FuncId,
    },
    /// An instrumented function is about to return or unwind.
    MethodExit {
        /// The function exiting.
        func: FuncId,
    },
    /// Control entered a loop from outside.
    LoopEntry {
        /// The loop entered.
        l: LoopId,
    },
    /// A loop back edge was traversed (one algorithmic step).
    LoopBackEdge {
        /// The loop iterating.
        l: LoopId,
    },
    /// Control left a loop (normally or exceptionally).
    LoopExit {
        /// The loop exited.
        l: LoopId,
    },
    /// A tracked reference field was read on `obj`.
    FieldRead {
        /// The object read from (always [`Value::Obj`] in live runs; kept
        /// as a [`Value`] so replay reproduces the wire encoding exactly).
        obj: Value,
        /// The field read.
        field: FieldId,
    },
    /// A field was written (after the write is visible in the heap).
    ///
    /// Fires for **every** field write; `tracked` is true when the field
    /// participates in a recursive type cycle (`FieldInfo::track_access`).
    FieldWrite {
        /// The object written to.
        obj: ObjRef,
        /// The field written.
        field: FieldId,
        /// The value stored, so sinks need not re-read the heap.
        value: Value,
        /// Whether the instrumentation pass flagged this field.
        tracked: bool,
    },
    /// An array element was loaded (only when `track_arrays` is set).
    ArrayRead {
        /// The array read from (always [`Value::Arr`] in live runs).
        arr: Value,
    },
    /// An array element was stored (after the write).
    ///
    /// Fires for **every** array store; `tracked` mirrors the program's
    /// `track_arrays` flag.
    ArrayWrite {
        /// The array written to.
        arr: ArrRef,
        /// The element index stored.
        index: usize,
        /// The value stored.
        value: Value,
        /// Whether array accesses are instrumented for this program.
        tracked: bool,
    },
    /// An object was allocated.
    ///
    /// Fires for **every** allocation; `tracked` is true when the class is
    /// flagged (`ClassInfo::track_alloc`).
    ObjectAlloc {
        /// The fresh object (fields hold their defaults).
        obj: ObjRef,
        /// The object's class.
        class: ClassId,
        /// Whether the instrumentation pass flagged this class.
        tracked: bool,
    },
    /// An array was allocated.
    ArrayAlloc {
        /// The fresh array (elements hold their defaults).
        arr: ArrRef,
        /// The erased element kind.
        elem: ElemKind,
        /// The element count.
        len: usize,
    },
    /// `readInput()` consumed one external value (only when `track_io`).
    InputRead,
    /// `print(x)` produced one external value (only when `track_io`).
    OutputWrite,
    /// A new thread was created by `spawn`. Delivered while the spawning
    /// thread is still current; the first events *of* the new thread only
    /// arrive after a [`Event::ThreadSwitch`] to it.
    ThreadSpawn {
        /// The freshly created thread.
        thread: ThreadId,
        /// The static function the thread runs.
        func: FuncId,
    },
    /// The scheduler switched execution to `thread`. Every subsequent
    /// event belongs to `thread` until the next switch. A stream starts
    /// implicitly in [`ThreadId::MAIN`]; single-threaded runs emit no
    /// thread events at all, so their streams are unchanged.
    ThreadSwitch {
        /// The thread now executing.
        thread: ThreadId,
    },
    /// `thread` returned from its entry function and is finished.
    /// Delivered while the ending thread is still current.
    ThreadEnd {
        /// The thread that finished.
        thread: ThreadId,
    },
    /// The current thread acquired the lock on `obj`.
    LockAcquire {
        /// The object or array locked (always a reference).
        obj: Value,
        /// Whether the thread had to block first. A contended acquire is
        /// preceded (earlier in the stream, before the scheduler switched
        /// away) by a [`Event::LockWait`] from the same thread.
        contended: bool,
    },
    /// The current thread released the lock on `obj` (lock depth hit 0).
    LockRelease {
        /// The object or array unlocked.
        obj: Value,
    },
    /// The current thread tried to acquire the lock on `obj`, found it
    /// held by another thread, and is about to block. Attribution charges
    /// this as contention cost to the *blocked* (current) thread.
    LockWait {
        /// The contended object or array.
        obj: Value,
    },
    /// One bytecode instruction was dispatched (a deterministic time proxy
    /// for traditional profilers). Not stored in traces.
    Instruction {
        /// The function executing.
        func: FuncId,
        /// The logical opcode dispatched. Superinstructions report one
        /// event per constituent opcode (see
        /// [`crate::bytecode::Instr::expansion`]), so this stream is
        /// identical with peephole fusion on or off.
        op: Opcode,
    },
}

/// The context every event is delivered with: the program being run and
/// the guest heap *after* the event's effect is visible. AlgoProf's input
/// identification traverses `heap` at event time; most sinks ignore it.
#[derive(Debug, Clone, Copy)]
pub struct EventCx<'a> {
    /// The (instrumented) program being executed or replayed.
    pub program: &'a CompiledProgram,
    /// The guest heap (live) or shadow heap (replay).
    pub heap: &'a Heap,
}

/// The payload-free kind of an [`Event`]: one variant per event variant,
/// in declaration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// [`Event::MethodEntry`].
    MethodEntry,
    /// [`Event::MethodExit`].
    MethodExit,
    /// [`Event::LoopEntry`].
    LoopEntry,
    /// [`Event::LoopBackEdge`].
    LoopBackEdge,
    /// [`Event::LoopExit`].
    LoopExit,
    /// [`Event::FieldRead`].
    FieldRead,
    /// [`Event::FieldWrite`].
    FieldWrite,
    /// [`Event::ArrayRead`].
    ArrayRead,
    /// [`Event::ArrayWrite`].
    ArrayWrite,
    /// [`Event::ObjectAlloc`].
    ObjectAlloc,
    /// [`Event::ArrayAlloc`].
    ArrayAlloc,
    /// [`Event::InputRead`].
    InputRead,
    /// [`Event::OutputWrite`].
    OutputWrite,
    /// [`Event::ThreadSpawn`].
    ThreadSpawn,
    /// [`Event::ThreadSwitch`].
    ThreadSwitch,
    /// [`Event::ThreadEnd`].
    ThreadEnd,
    /// [`Event::LockAcquire`].
    LockAcquire,
    /// [`Event::LockRelease`].
    LockRelease,
    /// [`Event::LockWait`].
    LockWait,
    /// [`Event::Instruction`].
    Instruction,
}

impl EventKind {
    /// Number of event kinds (`Instruction` is the last variant).
    pub const COUNT: usize = EventKind::Instruction as usize + 1;

    /// The kind's stable, lower-snake-case name (see [`Event::name`]).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::MethodEntry => "method_entry",
            EventKind::MethodExit => "method_exit",
            EventKind::LoopEntry => "loop_entry",
            EventKind::LoopBackEdge => "loop_back_edge",
            EventKind::LoopExit => "loop_exit",
            EventKind::FieldRead => "field_read",
            EventKind::FieldWrite => "field_write",
            EventKind::ArrayRead => "array_read",
            EventKind::ArrayWrite => "array_write",
            EventKind::ObjectAlloc => "object_alloc",
            EventKind::ArrayAlloc => "array_alloc",
            EventKind::InputRead => "input_read",
            EventKind::OutputWrite => "output_write",
            EventKind::ThreadSpawn => "thread_spawn",
            EventKind::ThreadSwitch => "thread_switch",
            EventKind::ThreadEnd => "thread_end",
            EventKind::LockAcquire => "lock_acquire",
            EventKind::LockRelease => "lock_release",
            EventKind::LockWait => "lock_wait",
            EventKind::Instruction => "instruction",
        }
    }
}

/// A set of [`EventKind`]s: the events a sink wants delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventMask(u32);

impl EventMask {
    /// No events at all.
    pub const NONE: EventMask = EventMask(0);
    /// Every event kind.
    pub const ALL: EventMask = EventMask((1 << EventKind::COUNT) - 1);

    /// The set holding only `kind`.
    pub const fn only(kind: EventKind) -> EventMask {
        EventMask(1 << kind as u32)
    }

    /// The kinds in `self`, in `other`, or in both.
    pub const fn union(self, other: EventMask) -> EventMask {
        EventMask(self.0 | other.0)
    }

    /// `self` with `kind` removed.
    pub const fn without(self, kind: EventKind) -> EventMask {
        EventMask(self.0 & !EventMask::only(kind).0)
    }

    /// Whether `kind` is in the set.
    #[inline]
    pub const fn contains(self, kind: EventKind) -> bool {
        self.0 & EventMask::only(kind).0 != 0
    }
}

/// Receives the profiling event stream, one call per event.
///
/// Static dispatch: every driver and combinator is generic over its
/// sink, so each sink stack gets its own monomorphised copy of the
/// interpreter loop.
///
/// # Interests
///
/// A sink declares the event kinds it reads in [`EventSink::INTERESTS`].
/// The interpreter consults this constant and neither builds nor
/// delivers an event no sink in the stack asked for, and [`Tee`] hands
/// each side only the kinds that side asked for. So an uninstrumented
/// run with [`NoopSink`] (the empty mask) pays only for the
/// interpreter's own counters. Declaring a mask is a promise that
/// [`EventSink::event`] ignores every other kind, which a caller may
/// still deliver (the trace replayer does not filter); the default,
/// [`EventMask::ALL`], is always correct and never faster.
///
/// The associated constant makes the trait not dyn-compatible: compose
/// sinks with the generic combinators, not `dyn EventSink`.
pub trait EventSink {
    /// The event kinds this sink reads.
    const INTERESTS: EventMask = EventMask::ALL;

    /// Observe one event. `cx.heap` already reflects the event's effect.
    fn event(&mut self, ev: &Event, cx: &EventCx<'_>);
}

/// A sink that ignores every event.
///
/// Also re-exported as `NoopProfiler` (the name the pre-`EventSink` hook
/// layer used) for callers that only ever needed "no profiling".
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl EventSink for NoopSink {
    const INTERESTS: EventMask = EventMask::NONE;

    #[inline]
    fn event(&mut self, _ev: &Event, _cx: &EventCx<'_>) {}
}

impl<S: EventSink + ?Sized> EventSink for &mut S {
    const INTERESTS: EventMask = S::INTERESTS;

    #[inline]
    fn event(&mut self, ev: &Event, cx: &EventCx<'_>) {
        (**self).event(ev, cx);
    }
}

/// Delivers every event to two sinks: `a` first, then `b`. Each side
/// only receives the kinds in its own [`EventSink::INTERESTS`]; the tee
/// wants the union of both.
///
/// The order is part of the contract — e.g. `Tee<TraceRecorder, AlgoProf>`
/// guarantees the recorder serializes each event before the profiler
/// mutates its own state, so recording is invisible to profiling and vice
/// versa.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tee<A, B> {
    /// The first sink; sees each event before `b`.
    pub a: A,
    /// The second sink.
    pub b: B,
}

impl<A, B> Tee<A, B> {
    /// Composes two sinks; `a` observes each event before `b`.
    pub fn new(a: A, b: B) -> Self {
        Tee { a, b }
    }
}

impl<A: EventSink, B: EventSink> EventSink for Tee<A, B> {
    const INTERESTS: EventMask = A::INTERESTS.union(B::INTERESTS);

    #[inline]
    fn event(&mut self, ev: &Event, cx: &EventCx<'_>) {
        let kind = ev.kind();
        if A::INTERESTS.contains(kind) {
            self.a.event(ev, cx);
        }
        if B::INTERESTS.contains(kind) {
            self.b.event(ev, cx);
        }
    }
}

/// Delivers every event to a homogeneous vector of sinks in index order
/// (slot 0 first, slot `n-1` last).
///
/// This is how `sweep` profiles N criteria ablations in a single guest
/// execution: `Fanout<AlgoProf>` with one instance per ablation.
#[derive(Debug, Default, Clone)]
pub struct Fanout<S> {
    /// The sinks, in delivery order.
    pub sinks: Vec<S>,
}

impl<S> Fanout<S> {
    /// Composes a vector of sinks delivered to in index order.
    pub fn new(sinks: Vec<S>) -> Self {
        Fanout { sinks }
    }

    /// Consumes the fanout, yielding the sinks in delivery order.
    pub fn into_sinks(self) -> Vec<S> {
        self.sinks
    }
}

impl<S: EventSink> EventSink for Fanout<S> {
    const INTERESTS: EventMask = S::INTERESTS;

    #[inline]
    fn event(&mut self, ev: &Event, cx: &EventCx<'_>) {
        for sink in &mut self.sinks {
            sink.event(ev, cx);
        }
    }
}

fn elem_kind_name(elem: ElemKind) -> &'static str {
    match elem {
        ElemKind::Int => "int",
        ElemKind::Bool => "boolean",
        ElemKind::Ref => "ref",
    }
}

impl Event {
    /// The event's payload-free kind.
    #[inline]
    pub const fn kind(&self) -> EventKind {
        match self {
            Event::MethodEntry { .. } => EventKind::MethodEntry,
            Event::MethodExit { .. } => EventKind::MethodExit,
            Event::LoopEntry { .. } => EventKind::LoopEntry,
            Event::LoopBackEdge { .. } => EventKind::LoopBackEdge,
            Event::LoopExit { .. } => EventKind::LoopExit,
            Event::FieldRead { .. } => EventKind::FieldRead,
            Event::FieldWrite { .. } => EventKind::FieldWrite,
            Event::ArrayRead { .. } => EventKind::ArrayRead,
            Event::ArrayWrite { .. } => EventKind::ArrayWrite,
            Event::ObjectAlloc { .. } => EventKind::ObjectAlloc,
            Event::ArrayAlloc { .. } => EventKind::ArrayAlloc,
            Event::InputRead => EventKind::InputRead,
            Event::OutputWrite => EventKind::OutputWrite,
            Event::ThreadSpawn { .. } => EventKind::ThreadSpawn,
            Event::ThreadSwitch { .. } => EventKind::ThreadSwitch,
            Event::ThreadEnd { .. } => EventKind::ThreadEnd,
            Event::LockAcquire { .. } => EventKind::LockAcquire,
            Event::LockRelease { .. } => EventKind::LockRelease,
            Event::LockWait { .. } => EventKind::LockWait,
            Event::Instruction { .. } => EventKind::Instruction,
        }
    }

    /// The event's stable, lower-snake-case name (shared by the text and
    /// JSON renderings and the `algoprof events` output).
    pub fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// Renders the event as one human-readable line, resolving ids to
    /// names through `program` (e.g. `loop_entry List.sort:loop1@L9`).
    pub fn render_text(&self, program: &CompiledProgram) -> String {
        match *self {
            Event::MethodEntry { func } | Event::MethodExit { func } => {
                format!("{} {}", self.name(), program.func(func).name)
            }
            Event::LoopEntry { l } | Event::LoopBackEdge { l } | Event::LoopExit { l } => {
                format!("{} {}", self.name(), program.loop_info(l).name)
            }
            Event::FieldRead { obj, field } => {
                let f = program.field(field);
                format!(
                    "{} {obj}.{}.{}",
                    self.name(),
                    program.class(f.class).name,
                    f.name
                )
            }
            Event::FieldWrite {
                obj,
                field,
                value,
                tracked,
            } => {
                let f = program.field(field);
                format!(
                    "{} obj@{}.{}.{} = {value}{}",
                    self.name(),
                    obj.0,
                    program.class(f.class).name,
                    f.name,
                    if tracked { " (tracked)" } else { "" }
                )
            }
            Event::ArrayRead { arr } => format!("{} {arr}", self.name()),
            Event::ArrayWrite {
                arr,
                index,
                value,
                tracked,
            } => format!(
                "{} arr@{}[{index}] = {value}{}",
                self.name(),
                arr.0,
                if tracked { " (tracked)" } else { "" }
            ),
            Event::ObjectAlloc {
                obj,
                class,
                tracked,
            } => format!(
                "{} obj@{} : {}{}",
                self.name(),
                obj.0,
                program.class(class).name,
                if tracked { " (tracked)" } else { "" }
            ),
            Event::ArrayAlloc { arr, elem, len } => format!(
                "{} arr@{} : {}[{len}]",
                self.name(),
                arr.0,
                elem_kind_name(elem)
            ),
            Event::InputRead | Event::OutputWrite => self.name().to_string(),
            Event::ThreadSpawn { thread, func } => {
                format!("{} {thread} {}", self.name(), program.func(func).name)
            }
            Event::ThreadSwitch { thread } | Event::ThreadEnd { thread } => {
                format!("{} {thread}", self.name())
            }
            Event::LockAcquire { obj, contended } => format!(
                "{} {obj}{}",
                self.name(),
                if contended { " (contended)" } else { "" }
            ),
            Event::LockRelease { obj } | Event::LockWait { obj } => {
                format!("{} {obj}", self.name())
            }
            Event::Instruction { func, op } => {
                format!("{} {} {}", self.name(), op.name(), program.func(func).name)
            }
        }
    }

    /// The event's JSON object members, `"event"` first, ids resolved to
    /// names through `program`; a caller may prepend members of its own.
    pub fn json_members(&self, program: &CompiledProgram) -> Vec<(&'static str, Json)> {
        let value = |v: Value| match v {
            Value::Int(i) => Json::from(i),
            Value::Bool(b) => Json::Bool(b),
            Value::Null => Json::Null,
            Value::Obj(_) | Value::Arr(_) => Json::Str(v.to_string()),
        };
        let method = |func: FuncId| Json::from(program.func(func).name.as_str());
        let class = |class: ClassId| Json::from(program.class(class).name.as_str());
        let mut members = vec![("event", self.name().into())];
        members.extend(match *self {
            Event::MethodEntry { func } | Event::MethodExit { func } => {
                vec![("method", method(func))]
            }
            Event::LoopEntry { l } | Event::LoopBackEdge { l } | Event::LoopExit { l } => {
                vec![("loop", program.loop_info(l).name.as_str().into())]
            }
            Event::FieldRead { obj: o, field } => {
                let f = program.field(field);
                vec![
                    ("obj", o.to_string().into()),
                    ("class", class(f.class)),
                    ("field", f.name.as_str().into()),
                ]
            }
            Event::FieldWrite {
                obj: o,
                field,
                value: v,
                tracked,
            } => {
                let f = program.field(field);
                vec![
                    ("obj", value(Value::Obj(o))),
                    ("class", class(f.class)),
                    ("field", f.name.as_str().into()),
                    ("value", value(v)),
                    ("tracked", tracked.into()),
                ]
            }
            Event::ArrayRead { arr: a } => vec![("arr", a.to_string().into())],
            Event::ArrayWrite {
                arr: a,
                index,
                value: v,
                tracked,
            } => vec![
                ("arr", value(Value::Arr(a))),
                ("index", index.into()),
                ("value", value(v)),
                ("tracked", tracked.into()),
            ],
            Event::ObjectAlloc {
                obj: o,
                class: c,
                tracked,
            } => vec![
                ("obj", value(Value::Obj(o))),
                ("class", class(c)),
                ("tracked", tracked.into()),
            ],
            Event::ArrayAlloc { arr: a, elem, len } => vec![
                ("arr", value(Value::Arr(a))),
                ("elem", elem_kind_name(elem).into()),
                ("len", len.into()),
            ],
            Event::InputRead | Event::OutputWrite => vec![],
            Event::ThreadSpawn { thread, func } => {
                vec![("thread", thread.0.into()), ("method", method(func))]
            }
            Event::ThreadSwitch { thread } | Event::ThreadEnd { thread } => {
                vec![("thread", thread.0.into())]
            }
            Event::LockAcquire { obj: o, contended } => vec![
                ("obj", o.to_string().into()),
                ("contended", contended.into()),
            ],
            Event::LockRelease { obj: o } | Event::LockWait { obj: o } => {
                vec![("obj", o.to_string().into())]
            }
            Event::Instruction { func, op } => {
                vec![("op", op.name().into()), ("method", method(func))]
            }
        });
        members
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;

    /// Appends `(tag, event name)` per event so delivery order is visible.
    struct Recording<'a> {
        tag: &'a str,
        log: &'a std::cell::RefCell<Vec<String>>,
    }

    impl EventSink for Recording<'_> {
        fn event(&mut self, ev: &Event, _cx: &EventCx<'_>) {
            self.log
                .borrow_mut()
                .push(format!("{}:{}", self.tag, ev.name()));
        }
    }

    fn cx_fixture() -> (CompiledProgram, Heap) {
        let program = compile("class Main { static int main() { return 0; } }").expect("compiles");
        (program, Heap::new())
    }

    #[test]
    fn tee_delivers_a_then_b() {
        let (program, heap) = cx_fixture();
        let cx = EventCx {
            program: &program,
            heap: &heap,
        };
        let log = std::cell::RefCell::new(Vec::new());
        let mut tee = Tee::new(
            Recording {
                tag: "a",
                log: &log,
            },
            Recording {
                tag: "b",
                log: &log,
            },
        );
        tee.event(&Event::InputRead, &cx);
        tee.event(&Event::OutputWrite, &cx);
        assert_eq!(
            log.into_inner(),
            vec![
                "a:input_read",
                "b:input_read",
                "a:output_write",
                "b:output_write"
            ]
        );
    }

    #[test]
    fn fanout_delivers_in_index_order() {
        let (program, heap) = cx_fixture();
        let cx = EventCx {
            program: &program,
            heap: &heap,
        };
        let log = std::cell::RefCell::new(Vec::new());
        let mut fanout = Fanout::new(vec![
            Recording {
                tag: "0",
                log: &log,
            },
            Recording {
                tag: "1",
                log: &log,
            },
            Recording {
                tag: "2",
                log: &log,
            },
        ]);
        fanout.event(&Event::InputRead, &cx);
        fanout.event(&Event::OutputWrite, &cx);
        assert_eq!(
            log.into_inner(),
            vec![
                "0:input_read",
                "1:input_read",
                "2:input_read",
                "0:output_write",
                "1:output_write",
                "2:output_write"
            ]
        );
    }

    #[test]
    fn nested_composition_keeps_depth_first_order() {
        let (program, heap) = cx_fixture();
        let cx = EventCx {
            program: &program,
            heap: &heap,
        };
        let log = std::cell::RefCell::new(Vec::new());
        // Tee(Fanout[x, y], z): x, y, then z.
        let mut sink = Tee::new(
            Fanout::new(vec![
                Recording {
                    tag: "x",
                    log: &log,
                },
                Recording {
                    tag: "y",
                    log: &log,
                },
            ]),
            Recording {
                tag: "z",
                log: &log,
            },
        );
        sink.event(&Event::InputRead, &cx);
        assert_eq!(
            log.into_inner(),
            vec!["x:input_read", "y:input_read", "z:input_read"]
        );
    }

    /// Reads only loop events, to check masks compose by union.
    struct LoopsOnly;

    impl EventSink for LoopsOnly {
        const INTERESTS: EventMask = EventMask::only(EventKind::LoopEntry)
            .union(EventMask::only(EventKind::LoopBackEdge))
            .union(EventMask::only(EventKind::LoopExit));

        fn event(&mut self, _ev: &Event, _cx: &EventCx<'_>) {}
    }

    /// Reads only instruction ticks.
    struct InstructionsOnly;

    impl EventSink for InstructionsOnly {
        const INTERESTS: EventMask = EventMask::only(EventKind::Instruction);

        fn event(&mut self, _ev: &Event, _cx: &EventCx<'_>) {}
    }

    fn interests<S: EventSink>(_: &S) -> EventMask {
        S::INTERESTS
    }

    #[test]
    fn default_interests_are_every_kind() {
        let log = std::cell::RefCell::new(Vec::new());
        let sink = Recording {
            tag: "r",
            log: &log,
        };
        assert_eq!(interests(&sink), EventMask::ALL);
        let all = [
            EventKind::MethodEntry,
            EventKind::MethodExit,
            EventKind::LoopEntry,
            EventKind::LoopBackEdge,
            EventKind::LoopExit,
            EventKind::FieldRead,
            EventKind::FieldWrite,
            EventKind::ArrayRead,
            EventKind::ArrayWrite,
            EventKind::ObjectAlloc,
            EventKind::ArrayAlloc,
            EventKind::InputRead,
            EventKind::OutputWrite,
            EventKind::ThreadSpawn,
            EventKind::ThreadSwitch,
            EventKind::ThreadEnd,
            EventKind::LockAcquire,
            EventKind::LockRelease,
            EventKind::LockWait,
            EventKind::Instruction,
        ];
        assert_eq!(all.len(), EventKind::COUNT);
        assert!(all.iter().all(|&k| EventMask::ALL.contains(k)));
        assert!(!all.iter().any(|&k| EventMask::NONE.contains(k)));
    }

    #[test]
    fn noop_sink_wants_nothing() {
        assert_eq!(interests(&NoopSink), EventMask::NONE);
    }

    #[test]
    fn tee_takes_the_union_and_wrappers_pass_through() {
        let loops = interests(&LoopsOnly);
        let instrs = interests(&InstructionsOnly);
        let tee = interests(&Tee::new(LoopsOnly, InstructionsOnly));
        assert_eq!(tee, loops.union(instrs));
        assert!(tee.contains(EventKind::LoopBackEdge));
        assert!(tee.contains(EventKind::Instruction));
        assert!(!tee.contains(EventKind::FieldRead));
        assert_eq!(interests(&Tee::new(NoopSink, LoopsOnly)), loops);
        assert_eq!(interests(&Fanout::new(vec![LoopsOnly])), loops);
        assert_eq!(
            interests(&Fanout::<NoopSink>::new(Vec::new())),
            EventMask::NONE
        );
        let mut inner = InstructionsOnly;
        assert_eq!(interests(&&mut inner), instrs);
        assert!(!EventMask::ALL
            .without(EventKind::Instruction)
            .contains(EventKind::Instruction));
    }

    #[test]
    fn tee_skips_the_side_that_did_not_ask() {
        let (program, heap) = cx_fixture();
        let cx = EventCx {
            program: &program,
            heap: &heap,
        };
        /// Logs like `Recording`, but only wants loop exits.
        struct ExitsOnly<'a>(Recording<'a>);
        impl EventSink for ExitsOnly<'_> {
            const INTERESTS: EventMask = EventMask::only(EventKind::LoopExit);
            fn event(&mut self, ev: &Event, cx: &EventCx<'_>) {
                self.0.event(ev, cx);
            }
        }
        let log = std::cell::RefCell::new(Vec::new());
        let mut tee = Tee::new(
            ExitsOnly(Recording {
                tag: "a",
                log: &log,
            }),
            Recording {
                tag: "b",
                log: &log,
            },
        );
        let l = crate::bytecode::LoopId(0);
        tee.event(&Event::LoopEntry { l }, &cx);
        tee.event(&Event::LoopExit { l }, &cx);
        assert_eq!(
            log.into_inner(),
            vec!["b:loop_entry", "a:loop_exit", "b:loop_exit"]
        );
    }

    #[test]
    fn renderings_resolve_names() {
        let program = compile(
            "class Main { static int main() {
                int s = 0;
                for (int i = 0; i < 3; i = i + 1) { s = s + i; }
                return s;
            } }",
        )
        .expect("compiles")
        .instrument(&crate::instrument::InstrumentOptions::default());
        let l = program.loops[0].id;
        let ev = Event::LoopEntry { l };
        let text = ev.render_text(&program);
        assert!(text.starts_with("loop_entry "), "got {text}");
        assert!(text.contains("Main.main"), "got {text}");
        let json = Json::obj(ev.json_members(&program)).to_line();
        assert!(json.starts_with("{\"event\": \"loop_entry\""), "got {json}");
        assert!(json.contains("\"loop\": \""), "got {json}");

        let ev = Event::FieldWrite {
            obj: ObjRef(0),
            field: FieldId(0),
            value: Value::Int(7),
            tracked: true,
        };
        // Rendering only needs table lookups; Main has no fields, so build
        // a minimal payload against a program that declares one.
        let program = compile(
            "class Main { static int main() { Node n = new Node(); n.v = 7; return n.v; } }
             class Node { int v; }",
        )
        .expect("compiles");
        let json = Json::obj(ev.json_members(&program)).to_line();
        assert!(json.contains("\"value\": 7"), "got {json}");
        assert!(json.contains("\"tracked\": true"), "got {json}");
        assert!(json.contains("\"field\": \"v\""), "got {json}");

        // Guest ints print exactly: i64::MAX does not pass through f64.
        for v in [i64::MAX, i64::MIN] {
            let ev = Event::ArrayWrite {
                arr: ArrRef(3),
                index: 1,
                value: Value::Int(v),
                tracked: false,
            };
            let json = Json::obj(ev.json_members(&program)).to_line();
            assert!(json.contains(&format!("\"value\": {v}, ")), "got {json}");
            let parsed = crate::json::parse(&json).expect("parses");
            assert_eq!(parsed.get("value").and_then(Json::as_i64), Some(v));
        }
    }
}
