//! The fleet coordinator: shard scheduling, lease-based crash recovery,
//! fragment folding, and checkpointing.
//!
//! The coordinator spawns N worker *processes* (`gauntlet fleet-worker`),
//! sends each the campaign spec, and hands out shards one at a time as
//! leases.  A worker that dies — crash, OOM-kill, chaos injection — simply
//! stops producing frames: its reader thread reports death, the leased
//! shard goes back to the front of the queue, and a replacement process is
//! spawned (up to `max_respawns`).  A worker that *hangs* is caught by the
//! optional lease timeout and killed into the same path.  Because workers
//! are stateless (see `worker`), recovery is re-assignment; no partial work
//! needs rescuing.
//!
//! Completed fragments fold into the [`TriageStore`] immediately and into a
//! [`Checkpoint`] every `checkpoint_every` shards, so `fleet resume` can
//! continue a coordinator killed at any point and still converge on the
//! byte-identical final report (deterministic mode's contract, pinned by
//! `tests/fleet.rs`).
//!
//! Chaos hooks (`chaos_kill`, `chaos_stall`, `stop_after_checkpoints`) are
//! first-class options rather than test-only patches: fault recovery that
//! cannot be exercised on demand is fault recovery that does not work.

use crate::checkpoint::Checkpoint;
use crate::merge;
use crate::protocol::{read_frame, write_frame, FromWorker, ToWorker};
use crate::spec::FleetSpec;
use crate::triage::TriageStore;
use gauntlet_core::{hunt_result_from_json, Corpus, DiversitySummary, HuntReport};
use gauntlet_telemetry::json::{self, Json};
use gauntlet_telemetry::{EventLog, Heartbeat, ProgressSink};
use std::collections::{BTreeMap, VecDeque};
use std::io::BufReader;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How to run a fleet campaign.
#[derive(Debug, Clone)]
pub struct FleetOptions {
    pub spec: FleetSpec,
    /// Worker process argv (`["path/to/gauntlet", "fleet-worker"]`).
    pub worker_command: Vec<String>,
    /// Silence the live status line and worker stderr.
    pub quiet: bool,
    /// Merged JSONL event log path: coordinator lifecycle events plus every
    /// worker event.  Relayed worker events are tagged `"worker": <slot>`;
    /// the coordinator's own events about a worker use `"slot"` instead, so
    /// each `worker` value names exactly one emitting process (the per-stream
    /// `ts_ms` monotonicity contract checked by `validate_events`).
    pub events: Option<String>,
    /// Chaos: kill worker `slot` right after it delivers its `n`th fragment
    /// (and has been handed a fresh lease), forcing a mid-epoch death.
    pub chaos_kill: Option<(usize, usize)>,
    /// Chaos: park worker `slot` instead of sending its `n`th-after-delivery
    /// assignment, forcing the lease timeout to fire.
    pub chaos_stall: Option<(usize, usize)>,
    /// Stop (orderly, workers killed, checkpoint on disk) after writing this
    /// many checkpoints.  The `fleet resume` test hook.
    pub stop_after_checkpoints: Option<usize>,
    /// Kill a worker whose lease is older than this.
    pub lease_timeout: Option<Duration>,
    /// Replacement processes allowed across the whole run.
    pub max_respawns: usize,
}

impl FleetOptions {
    pub fn new(spec: FleetSpec, worker_command: Vec<String>) -> FleetOptions {
        FleetOptions {
            spec,
            worker_command,
            quiet: false,
            events: None,
            chaos_kill: None,
            chaos_stall: None,
            stop_after_checkpoints: None,
            lease_timeout: None,
            max_respawns: 8,
        }
    }
}

/// What happened, operationally.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetStats {
    pub shards_total: usize,
    pub workers_spawned: usize,
    pub worker_deaths: usize,
    pub leases_reassigned: usize,
    pub checkpoints_written: usize,
}

/// The coordinator's result.
pub struct FleetOutcome {
    /// The merged report; `None` when the run stopped early
    /// (`stop_after_checkpoints`).
    pub report: Option<HuntReport>,
    /// The merged corpus (so far, on an interrupted run).
    pub corpus: Corpus,
    pub triage: TriageStore,
    pub stats: FleetStats,
    /// True when the run stopped before completing every shard.
    pub interrupted: bool,
}

enum Incoming {
    Frame(FromWorker),
    Dead,
}

struct WorkerSlot {
    child: Option<Child>,
    stdin: Option<ChildStdin>,
    /// Bumped per spawn; messages from older generations are ignored.
    generation: u64,
    /// `(shard, leased_at)` of the outstanding assignment.
    lease: Option<(usize, Instant)>,
    /// Fragments this slot has delivered (across generations).
    delivered: usize,
}

/// Run a fresh fleet campaign.
pub fn hunt(options: FleetOptions) -> Result<FleetOutcome, String> {
    options.spec.validate()?;
    let queue: VecDeque<usize> = (0..options.spec.shard_count()).collect();
    Coordinator::new(options, queue, BTreeMap::new(), TriageStore::new())?.run()
}

/// Continue a checkpointed campaign.  The caller loads the [`Checkpoint`]
/// (its spec replaces `options.spec`) and the coordinator re-runs only the
/// remaining shards; preloaded fragments are *not* re-folded into triage —
/// the checkpointed store already accounts for them.
pub fn resume(mut options: FleetOptions, checkpoint: Checkpoint) -> Result<FleetOutcome, String> {
    options.spec = checkpoint.spec.clone();
    options.spec.validate()?;
    let queue: VecDeque<usize> = checkpoint.remaining_shards().into();
    Coordinator::new(options, queue, checkpoint.fragments, checkpoint.triage)?.run()
}

struct Coordinator {
    options: FleetOptions,
    spec_json: Json,
    slots: Vec<WorkerSlot>,
    queue: VecDeque<usize>,
    fragments: BTreeMap<usize, Json>,
    /// Fragment arrival order (throughput-mode merge order).  Preloaded
    /// fragments come first, in shard order.
    arrival: Vec<usize>,
    triage: TriageStore,
    stats: FleetStats,
    tx: mpsc::Sender<(usize, u64, Incoming)>,
    rx: mpsc::Receiver<(usize, u64, Incoming)>,
    events: Option<EventLog>,
    progress: ProgressSink,
    respawns_used: usize,
    chaos_kill: Option<(usize, usize)>,
    chaos_stall: Option<(usize, usize)>,
    since_checkpoint: usize,
    stop_requested: bool,
    seeds_done: usize,
    bugs_seen: usize,
    started: Instant,
}

impl Coordinator {
    fn new(
        options: FleetOptions,
        queue: VecDeque<usize>,
        fragments: BTreeMap<usize, Json>,
        triage: TriageStore,
    ) -> Result<Coordinator, String> {
        if options.worker_command.is_empty() {
            return Err("fleet: empty worker command".into());
        }
        let events = match &options.events {
            Some(path) => Some(
                EventLog::create(path)
                    .map_err(|error| format!("cannot create event log `{path}`: {error}"))?,
            ),
            None => None,
        };
        let spec_json = options.spec.to_json();
        let arrival: Vec<usize> = fragments.keys().copied().collect();
        let (tx, rx) = mpsc::channel();
        let stats = FleetStats {
            shards_total: options.spec.shard_count(),
            ..FleetStats::default()
        };
        let progress = ProgressSink::new(!options.quiet);
        let chaos_kill = options.chaos_kill;
        let chaos_stall = options.chaos_stall;
        Ok(Coordinator {
            slots: Vec::new(),
            queue,
            fragments,
            arrival,
            triage,
            stats,
            tx,
            rx,
            events,
            progress,
            respawns_used: 0,
            chaos_kill,
            chaos_stall,
            since_checkpoint: 0,
            stop_requested: false,
            seeds_done: 0,
            bugs_seen: 0,
            started: Instant::now(),
            spec_json,
            options,
        })
    }

    fn emit(&self, event: &str, fields: &[(&str, Json)]) {
        if let Some(log) = &self.events {
            log.emit(event, fields);
        }
    }

    fn spawn_into(&mut self, slot: usize) -> Result<(), String> {
        let command = &self.options.worker_command;
        let mut child = Command::new(&command[0])
            .args(&command[1..])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(if self.options.quiet {
                Stdio::null()
            } else {
                Stdio::inherit()
            })
            .spawn()
            .map_err(|error| format!("cannot spawn worker `{}`: {error}", command[0]))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        while self.slots.len() <= slot {
            self.slots.push(WorkerSlot {
                child: None,
                stdin: None,
                generation: 0,
                lease: None,
                delivered: 0,
            });
        }
        let state = &mut self.slots[slot];
        state.generation += 1;
        let generation = state.generation;
        state.child = Some(child);
        state.stdin = Some(stdin);
        state.lease = None;
        self.stats.workers_spawned += 1;

        let tx = self.tx.clone();
        std::thread::spawn(move || {
            let mut reader = BufReader::new(stdout);
            loop {
                match read_frame(&mut reader) {
                    Ok(Some(body)) => match FromWorker::from_body(&body) {
                        Ok(frame) => {
                            if tx.send((slot, generation, Incoming::Frame(frame))).is_err() {
                                return;
                            }
                        }
                        // A garbled frame is indistinguishable from
                        // corruption: treat the worker as lost.
                        Err(_) => {
                            let _ = tx.send((slot, generation, Incoming::Dead));
                            return;
                        }
                    },
                    Ok(None) | Err(_) => {
                        let _ = tx.send((slot, generation, Incoming::Dead));
                        return;
                    }
                }
            }
        });

        self.send(
            slot,
            &ToWorker::Init {
                spec: self.spec_json.clone(),
            },
        );
        Ok(())
    }

    /// Write one frame to a worker.  Errors are ignored: a broken pipe means
    /// the worker died, which its reader thread reports through the normal
    /// death path.
    fn send(&mut self, slot: usize, message: &ToWorker) {
        if let Some(stdin) = self.slots[slot].stdin.as_mut() {
            let _ = write_frame(stdin, &message.to_body());
        }
    }

    fn alive(&self, slot: usize) -> bool {
        self.slots[slot].child.is_some()
    }

    /// Hand the next queued shard to an idle worker.
    fn assign_next(&mut self, slot: usize) {
        if !self.alive(slot) || self.slots[slot].lease.is_some() {
            return;
        }
        let Some(shard) = self.queue.pop_front() else {
            return;
        };
        self.slots[slot].lease = Some((shard, Instant::now()));
        if self.chaos_stall == Some((slot, self.slots[slot].delivered)) {
            // Withhold the assignment: the worker idles, the coordinator
            // believes it is working, and only the lease timeout can
            // recover the shard.
            self.chaos_stall = None;
            self.send(slot, &ToWorker::Stall);
            return;
        }
        let (offset, count) = self.options.spec.shard_range(shard);
        self.send(
            slot,
            &ToWorker::Assign {
                shard,
                offset,
                count,
            },
        );
        self.emit(
            "shard_assign",
            &[
                ("shard", shard.into()),
                ("slot", slot.into()),
                ("offset", offset.into()),
                ("count", count.into()),
            ],
        );
    }

    fn kill(&mut self, slot: usize) {
        if let Some(child) = self.slots[slot].child.as_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
        // Keep `child`/`stdin` in place until the reader thread's Dead
        // message arrives — handle_dead owns the cleanup and reassignment.
    }

    fn handle_fragment(&mut self, slot: usize, shard: usize, body: Json) -> Result<(), String> {
        if let Some((leased, _)) = self.slots[slot].lease {
            if leased == shard {
                self.slots[slot].lease = None;
            }
        }
        self.slots[slot].delivered += 1;
        if self.fragments.contains_key(&shard) {
            // A reassigned shard can complete twice when the original
            // worker's frame was already buffered; first delivery wins.
            self.assign_next(slot);
            return Ok(());
        }
        let result = body
            .get("result")
            .ok_or_else(|| format!("fragment for shard {shard} has no `result`"))?;
        let partial = hunt_result_from_json(result)
            .map_err(|error| format!("fragment for shard {shard}: {error}"))?;
        // Under diversity, provenance is the *configuration* that found the
        // bug (`slice-N`, a pure function of the shard), not the worker
        // process that happened to hold the lease — so per-configuration
        // yield survives lease reassignment and resume byte-identically.
        let provenance = if self.options.spec.diversity {
            format!("slice-{}", shard % self.options.spec.workers.max(1))
        } else {
            format!("worker-{slot}")
        };
        for outcome in &partial.outcomes {
            for (index, report) in outcome.reports.iter().enumerate() {
                self.triage
                    .record(&provenance, outcome.seed, index as u64, report);
            }
        }
        self.fragments.insert(shard, body);
        self.arrival.push(shard);
        self.since_checkpoint += 1;
        self.emit(
            "shard_done",
            &[
                ("shard", shard.into()),
                ("slot", slot.into()),
                ("bugs", partial.total_bugs.into()),
            ],
        );

        let complete = self.fragments.len() == self.stats.shards_total;
        if self.options.spec.checkpoint.is_some()
            && (self.since_checkpoint >= self.options.spec.checkpoint_every.max(1) || complete)
        {
            self.write_checkpoint(complete)?;
            if !complete
                && self
                    .options
                    .stop_after_checkpoints
                    .is_some_and(|limit| self.stats.checkpoints_written >= limit)
            {
                self.stop_requested = true;
                return Ok(());
            }
        }

        if self.chaos_kill == Some((slot, self.slots[slot].delivered)) {
            self.chaos_kill = None;
            // Take a fresh lease *first* so the kill strands an assigned
            // shard — the recovery path under test.
            self.assign_next(slot);
            self.progress
                .note(&format!("[fleet] chaos: killing worker {slot}"));
            self.kill(slot);
            return Ok(());
        }
        self.assign_next(slot);
        Ok(())
    }

    fn handle_dead(&mut self, slot: usize) -> Result<(), String> {
        let state = &mut self.slots[slot];
        if let Some(mut child) = state.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        state.stdin = None;
        self.stats.worker_deaths += 1;
        self.emit("worker_exit", &[("slot", slot.into())]);
        if let Some((shard, _)) = self.slots[slot].lease.take() {
            self.queue.push_front(shard);
            self.stats.leases_reassigned += 1;
            self.progress.note(&format!(
                "[fleet] worker {slot} died holding shard {shard}; reassigning"
            ));
            self.emit(
                "shard_reassign",
                &[("shard", shard.into()), ("slot", slot.into())],
            );
        }
        if !self.queue.is_empty() {
            if self.respawns_used < self.options.max_respawns {
                self.respawns_used += 1;
                self.spawn_into(slot)?;
                self.assign_next(slot);
            } else {
                // Someone else may still drain the queue.
                for other in 0..self.slots.len() {
                    self.assign_next(other);
                }
            }
        }
        Ok(())
    }

    fn relay_event(&mut self, slot: usize, payload: Json) {
        if let Some(kind) = payload.get("event").and_then(|e| e.as_str()) {
            match kind {
                "seed" => {
                    self.seeds_done += 1;
                    if self.seeds_done.is_multiple_of(25) {
                        let elapsed = self.started.elapsed().as_secs_f64().max(1e-9);
                        self.progress.heartbeat(&Heartbeat {
                            done: self.seeds_done,
                            total: self.options.spec.seed_count,
                            bugs: self.bugs_seen,
                            seeds_per_sec: self.seeds_done as f64 / elapsed,
                            cache_hit_rate: None,
                            eta_secs: None,
                        });
                    }
                }
                "bug" => self.bugs_seen += 1,
                _ => {}
            }
        }
        if let Some(log) = &self.events {
            // Tag provenance so the merged log's per-process streams stay
            // separable (validate_events checks ts_ms monotonicity per
            // worker, not globally).  Only relayed events carry `worker`;
            // the coordinator's own events use `slot` — mixing the two
            // clocks under one stream key would break monotonicity.
            if let Json::Object(mut fields) = payload {
                fields.push(("worker".to_string(), slot.into()));
                log.emit_raw(&json::render(&Json::Object(fields)));
            }
        }
    }

    fn check_lease_timeouts(&mut self) {
        let Some(timeout) = self.options.lease_timeout else {
            return;
        };
        let expired: Vec<usize> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(slot, state)| match state.lease {
                Some((_, since)) if since.elapsed() > timeout && state.child.is_some() => {
                    Some(slot)
                }
                _ => None,
            })
            .collect();
        for slot in expired {
            self.progress.note(&format!(
                "[fleet] worker {slot} exceeded the lease timeout; killing"
            ));
            self.kill(slot);
        }
    }

    fn write_checkpoint(&mut self, complete: bool) -> Result<(), String> {
        let Some(path) = self.options.spec.checkpoint.clone() else {
            return Ok(());
        };
        // Lend the fragments and triage to the checkpoint rather than
        // cloning them: the fragments are the whole campaign's results.
        let checkpoint = Checkpoint {
            spec: self.options.spec.clone(),
            fragments: std::mem::take(&mut self.fragments),
            triage: std::mem::take(&mut self.triage),
            complete,
        };
        let saved = checkpoint.save(&path);
        self.fragments = checkpoint.fragments;
        self.triage = checkpoint.triage;
        saved?;
        self.stats.checkpoints_written += 1;
        self.since_checkpoint = 0;
        self.emit(
            "checkpoint",
            &[
                ("path", path.as_str().into()),
                ("shards_done", self.fragments.len().into()),
                ("complete", complete.into()),
            ],
        );
        Ok(())
    }

    fn live_workers(&self) -> usize {
        self.slots
            .iter()
            .filter(|slot| slot.child.is_some())
            .count()
    }

    fn shutdown_all(&mut self) {
        for slot in 0..self.slots.len() {
            self.send(slot, &ToWorker::Shutdown);
        }
        for state in &mut self.slots {
            if let Some(mut child) = state.child.take() {
                // Workers exit on Shutdown or on stdin EOF; kill covers a
                // parked (chaos-stalled) straggler.
                drop(state.stdin.take());
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }

    fn interrupted_outcome(mut self) -> Result<FleetOutcome, String> {
        self.shutdown_all();
        let corpus = if self.options.spec.coverage {
            merge::refilter_corpus(&self.fragments)?
        } else {
            Corpus::default()
        };
        self.emit(
            "fleet_end",
            &[
                ("complete", false.into()),
                ("shards_done", self.fragments.len().into()),
            ],
        );
        Ok(FleetOutcome {
            report: None,
            corpus,
            triage: self.triage,
            stats: self.stats,
            interrupted: true,
        })
    }

    fn run(mut self) -> Result<FleetOutcome, String> {
        self.emit(
            "fleet_start",
            &[
                ("workers", self.options.spec.workers.into()),
                ("shards", self.stats.shards_total.into()),
                ("seeds", self.options.spec.seed_count.into()),
                ("mode", self.options.spec.mode.as_str().into()),
            ],
        );
        let initial = self.options.spec.workers.min(self.queue.len()).max(1);
        for slot in 0..initial {
            self.spawn_into(slot)?;
        }
        for slot in 0..self.slots.len() {
            self.assign_next(slot);
        }

        while self.fragments.len() < self.stats.shards_total {
            if self.stop_requested {
                return self.interrupted_outcome();
            }
            if self.queue.is_empty() && self.slots.iter().all(|slot| slot.lease.is_none()) {
                // Every shard is either done or unaccounted for — with an
                // empty queue and no leases the counts must disagree.
                return Err("fleet: shards lost without a lease".into());
            }
            if self.live_workers() == 0 {
                return Err(format!(
                    "fleet: all workers lost after {} death(s) ({} respawn(s) used, limit {})",
                    self.stats.worker_deaths, self.respawns_used, self.options.max_respawns
                ));
            }
            match self.rx.recv_timeout(Duration::from_millis(50)) {
                Ok((slot, generation, incoming)) => {
                    if self.slots[slot].generation != generation {
                        continue; // A previous incarnation's leftovers.
                    }
                    match incoming {
                        Incoming::Frame(FromWorker::Hello { pid }) => {
                            self.emit(
                                "worker_spawn",
                                &[("slot", slot.into()), ("pid", pid.into())],
                            );
                        }
                        Incoming::Frame(FromWorker::Event { payload }) => {
                            self.relay_event(slot, payload);
                        }
                        Incoming::Frame(FromWorker::Fragment { shard, body }) => {
                            self.handle_fragment(slot, shard, body)?;
                        }
                        Incoming::Dead => self.handle_dead(slot)?,
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    unreachable!("coordinator holds a sender")
                }
            }
            self.check_lease_timeouts();
        }

        if self.options.spec.checkpoint.is_some() && self.since_checkpoint > 0 {
            self.write_checkpoint(true)?;
        }
        self.shutdown_all();
        let (mut report, corpus) =
            merge::merge(&self.options.spec, &self.fragments, &self.arrival)?;
        if self.options.spec.diversity {
            // Per-configuration distinct-bug yield, derived from the merged
            // triage store: a slice is credited for every distinct bug whose
            // provenance includes it.  Deterministic because the store's
            // merge is order-independent and slices are spec-derived.
            let slices = self.options.spec.workers.max(1);
            let mut distinct_bugs: BTreeMap<String, usize> =
                (0..slices).map(|s| (format!("slice-{s}"), 0)).collect();
            for entry in self.triage.entries() {
                for slice in entry.workers.keys().filter(|k| k.starts_with("slice-")) {
                    *distinct_bugs.entry(slice.clone()).or_insert(0) += 1;
                }
            }
            report.diversity = Some(DiversitySummary {
                slices,
                distinct_bugs,
            });
        }
        if let Some(path) = &self.options.spec.corpus {
            corpus
                .save(path)
                .map_err(|error| format!("cannot save corpus `{path}`: {error}"))?;
        }
        self.emit(
            "fleet_end",
            &[
                ("complete", true.into()),
                ("bugs", report.total_bugs.into()),
                ("distinct", self.triage.len().into()),
            ],
        );
        self.progress.note(&format!(
            "[fleet] {} shard(s) merged · {} bug(s), {} distinct · {} death(s) survived",
            self.stats.shards_total,
            report.total_bugs,
            self.triage.len(),
            self.stats.worker_deaths
        ));
        Ok(FleetOutcome {
            report: Some(report),
            corpus,
            triage: self.triage,
            stats: self.stats,
            interrupted: false,
        })
    }
}
