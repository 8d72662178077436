//! Set-up, the closed-loop clients, the oracles and the metrics of one
//! benchmark run. The engine is observed only from outside: calls into
//! the public `gemstone`, `gemstone_opal` and `gemstone_calculus` API are
//! timed here, and `Database::metrics_snapshot` is diffed around them.

use crate::gen::{Class, Data, Op, Stream, Workload, ID_RANGE, RANGE_WIDTH};
use crate::stats::{median, peak_rss_mb, summarize};
use crate::trace::{Ledger, Span, SpanLog};
use gemstone::{ElemName, GemError, GemStone, Histogram, MetricsSnapshot, Session, StoreConfig};
use gemstone_calculus::{CmpOp, Pred, Query, Range, Term, VarId};
use gemstone_opal::{compile_doit, BasicWorld, OpalWorld};
use std::collections::{BTreeMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// A conflicting transaction is retried up to this many times.
const MAX_ATTEMPTS: u32 = 64;
/// Employees loaded per set-up doIt (and commit).
const LOAD_BATCH: usize = 500;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Untimed transactions before the `cold` timed phase.
const COLD_WARMUP_TXNS: u64 = 100;

/// One run's parameters.
#[derive(Clone, Debug)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Employees at set-up (the workload's default unless overridden).
    pub employees: usize,
    /// The percentile each `…_p99_us` metric reports, by [`Class`] (the
    /// workload's [`tail_levels`] unless overridden).
    pub tail_levels: [f64; 4],
    /// Where the traced run writes its spans.
    pub workdir: PathBuf,
}

impl Config {
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool, workdir: PathBuf) -> Self {
        let employees = match workload {
            Workload::Oltp | Workload::Analytics => 4_000,
            Workload::Cold => 8_000,
        };
        Config {
            workload,
            seed,
            seconds,
            trace,
            employees,
            tail_levels: tail_levels(workload),
            workdir,
        }
    }

    fn clients(&self) -> usize {
        match self.workload {
            Workload::Oltp => 2,
            Workload::Analytics | Workload::Cold => 1,
        }
    }
}

/// The percentile behind `read_p99_us`, `write_p99_us`, `query_p99_us`
/// and `history_p99_us`, in [`Class::ALL`] order. It is fixed per workload
/// and class, so every run and every version of the engine is compared at
/// the same percentile. Each is the highest level that a third of the
/// smallest window seen in the reference 20 s runs still supports by
/// [`crate::stats::max_tail_level`]: a run may be three times slower, as
/// a busy host can make `oltp`, before its windows run short. A run whose
/// windows are too small fails instead of reporting a lower percentile.
pub fn tail_levels(workload: Workload) -> [f64; 4] {
    match workload {
        Workload::Oltp => [0.9, 0.9, 0.75, 0.75],
        Workload::Analytics => [0.5, 0.5, 0.5, 0.5],
        Workload::Cold => [0.95, 0.95, 0.5, 0.5],
    }
}

/// Cache capacities beside the sizes they must hold.
#[derive(Clone, Copy)]
pub struct Sizes {
    pub live_objects: usize,
    pub data_tracks: usize,
    /// `None`: unbounded.
    pub object_cache_limit: Option<usize>,
    pub track_cache: usize,
}

/// A freshly built database.
struct Built {
    gs: GemStone,
    t0: i64,
    load_s: f64,
    reopen_s: f64,
    sizes: Sizes,
    /// Seconds per 1 000 employees loaded, in load order.
    batch_s: Vec<f64>,
}

fn gem<T>(r: Result<T, GemError>, what: &str) -> Result<T, String> {
    r.map_err(|e| format!("{what}: {e}"))
}

fn run_int(s: &mut Session, src: &str) -> Result<i64, String> {
    let v = gem(s.run(src), src)?;
    v.as_int().ok_or_else(|| format!("{src}: not an integer"))
}

fn load(s: &mut Session, data: &Data, salary_index: bool) -> Result<Vec<f64>, String> {
    let mut src = String::from("| d | Dept := OrderedCollection new. Staff := Set new.\n");
    for (i, b) in data.budgets.iter().enumerate() {
        src.push_str(&format!(
            "d := Dictionary new. d at: #Name put: 'D{i}'. d at: #Budget put: {b}. Dept add: d.\n"
        ));
    }
    gem(s.run(&src), "create departments")?;
    gem(s.commit(), "commit departments")?;
    let mut batch_s = Vec::new();
    let mut since = Instant::now();
    for start in (0..data.employees()).step_by(LOAD_BATCH) {
        let mut src = String::from("| e |\n");
        for id in start..(start + LOAD_BATCH).min(data.employees()) {
            src.push_str(&format!(
                "e := Dictionary new. e at: #Id put: {id}. e at: #Name put: 'E{id}'. \
                 e at: #Salary put: {}. e at: #Dept put: (Dept at: {}). Staff add: e.\n",
                data.salaries[id],
                data.depts[id] + 1
            ));
        }
        gem(s.run(&src), "load employees")?;
        gem(s.commit(), "commit employees")?;
        if (start + LOAD_BATCH).is_multiple_of(1_000) || start + LOAD_BATCH >= data.employees() {
            batch_s.push(since.elapsed().as_secs_f64());
            since = Instant::now();
        }
    }
    gem(s.run("System createIndexOn: Staff path: #Id"), "index #Id")?;
    if salary_index {
        gem(s.run("System createIndexOn: Staff path: #Salary"), "index #Salary")?;
    }
    gem(s.commit(), "commit indexes")?;
    Ok(batch_s)
}

fn setup(cfg: &Config, data: &Data) -> Result<Built, String> {
    let start = Instant::now();
    let gs = gem(GemStone::create(StoreConfig::default()), "create")?;
    let db = gs.database().clone();
    db.set_object_cache_limit(None);
    let mut s = gem(gs.login("system"), "login")?;
    let batch_s = load(&mut s, data, cfg.workload == Workload::Analytics)?;
    let t0 = run_int(&mut s, "System currentTime")?;
    drop(s);
    if cfg.workload == Workload::Analytics {
        gem(db.enable_stats(), "enable planner statistics")?;
    }
    let sizes = Sizes {
        live_objects: db.store().object_count(),
        data_tracks: db.with_disk(|d| d.tracks_beyond(0)) as usize,
        object_cache_limit: None,
        track_cache: db.store().cache_capacity(),
    };
    let load_s = start.elapsed().as_secs_f64();
    drop(db);
    if cfg.workload != Workload::Cold {
        return Ok(Built { gs, t0, load_s, reopen_s: 0.0, sizes, batch_s });
    }
    // Restart from the disk with a working set that outgrows both caches:
    // the object cache holds an eighth of the live objects, the track
    // cache half the tracks.
    let reopen = Instant::now();
    let disk = gem(gs.shutdown(), "shutdown")?;
    let object_cache_limit = Some((sizes.live_objects / 8).max(1));
    let gs = gem(GemStone::open(disk, (sizes.data_tracks / 2).max(1)), "reopen")?;
    gs.database().set_object_cache_limit(object_cache_limit);
    let reopen_s = reopen.elapsed().as_secs_f64();
    // Sizes as the reopened engine reports them. The public API has no
    // getter for the object-cache limit, so that one is the value set; the
    // timed phase must then show object faults and track-cache misses.
    let db = gs.database();
    let sizes = Sizes {
        live_objects: db.store().object_count(),
        data_tracks: db.with_disk(|d| d.tracks_beyond(0)) as usize,
        object_cache_limit,
        track_cache: db.store().cache_capacity(),
    };
    Ok(Built { gs, t0, load_s, reopen_s, sizes, batch_s })
}

/// A float as OPAL holds it: an immediate with the low 4 mantissa bits
/// truncated (`Oop::float`).
fn opal_float(x: f64) -> f64 {
    f64::from_bits(x.to_bits() & !0xF)
}

/// The §5.1 predicate `e Salary > (0.10 * (d at: #Budget))` in OPAL
/// arithmetic.
fn earns_over_tenth(salary: i64, budget: i64) -> bool {
    salary as f64 > opal_float(opal_float(0.10) * budget as f64)
}

/// What the oracle knows about the database while clients run.
struct Model<'a> {
    data: &'a Data,
    /// Current salaries, when one client makes them exact.
    current: Option<Vec<i64>>,
}

impl Model<'_> {
    fn count(salaries: &[i64], lo: i64) -> i64 {
        salaries.iter().filter(|&&s| s >= lo && s < lo + RANGE_WIDTH).count() as i64
    }

    /// The value `op` must return, when the model can tell.
    fn expect(&self, op: &Op) -> Option<i64> {
        let d = self.data;
        if let Op::History { id } = *op {
            return Some(d.salaries[id as usize]);
        }
        if let Op::DialScan { lo } = *op {
            return Some(Model::count(&d.salaries, lo));
        }
        let cur = self.current.as_ref()?;
        Some(match *op {
            Op::PointRead { id } => d.budgets[d.depts[id as usize]],
            Op::SalaryRead { id } => cur[id as usize],
            Op::IdRange { lo } => cur[lo as usize..(lo + ID_RANGE) as usize].iter().sum(),
            Op::RangeScan { lo } => Model::count(cur, lo),
            Op::EqSelect { salary } => cur.iter().filter(|&&s| s == salary).count() as i64,
            Op::Join => cur
                .iter()
                .zip(&d.depts)
                .filter(|&(&s, &dept)| earns_over_tenth(s, d.budgets[dept]))
                .count() as i64,
            Op::Aggregate { lo } => cur.iter().filter(|&&s| s > lo).sum(),
            Op::SetSalary { salary, .. } => salary,
            _ => return None,
        })
    }

    fn apply(&mut self, op: &Op) {
        if let (Some(cur), Op::SetSalary { id, salary }) = (self.current.as_mut(), op) {
            cur[*id as usize] = *salary;
        }
    }
}

/// The `commit.phase.*` histograms the commit span is split by.
const PHASES: [(&str, &str); 4] = [
    ("commit.validation", "commit.phase.validation_us"),
    ("commit.safe_write", "commit.phase.safe_write_us"),
    ("commit.fsync", "commit.phase.fsync_us"),
    ("commit.publish", "commit.phase.publish_us"),
];

/// Everything one client measured in one phase.
#[derive(Default)]
struct ClientRun {
    /// `(seconds into the timed phase, latency µs)` per committed
    /// transaction, by class.
    latency_us: BTreeMap<Class, Vec<(f64, f64)>>,
    committed: u64,
    committed_ro: u64,
    committed_query: u64,
    attempted: u64,
    failed: u64,
    commit_attempts: u64,
    raises: i64,
    hired: Vec<(u64, i64)>,
    mismatches: Vec<String>,
    spans: Vec<Span>,
    asof_us: Vec<f64>,
    /// (start ns, distinct employees touched, begin-refresh µs) per traced
    /// transaction.
    begin_curve: Vec<(u64, usize, f64)>,
    commits_split: u64,
    commits_traced: u64,
}

/// The employees an operation names.
fn touched_ids(op: &Op) -> Vec<u64> {
    match *op {
        Op::PointRead { id }
        | Op::SalaryRead { id }
        | Op::History { id }
        | Op::Raise { id }
        | Op::SetSalary { id, .. }
        | Op::Hire { id, .. } => vec![id],
        Op::IdRange { lo } => (lo..lo + ID_RANGE).collect(),
        _ => Vec::new(),
    }
}

/// The analytics range scan as a calculus query, or the Id-range probe on
/// the other workloads: what `calculus.query_us` times through
/// `Session::query`.
fn probe_query(s: &mut Session, workload: Workload, lo: i64) -> Result<Query, String> {
    let staff_sym = s.intern("Staff");
    let staff = s.get_global(staff_sym).ok_or("no Staff global")?;
    let (key, hi) = match workload {
        Workload::Analytics => ("Salary", lo + RANGE_WIDTH),
        _ => ("Id", lo + ID_RANGE as i64),
    };
    let path = vec![ElemName::Sym(s.intern(key))];
    let v = VarId(0);
    Ok(Query {
        result: vec![(s.intern("Id"), Term::Path(v, vec![ElemName::Sym(s.intern("Id"))]))],
        ranges: vec![Range { var: v, domain: Term::Const(staff) }],
        pred: Pred::Cmp(
            Term::Path(v, path.clone()),
            CmpOp::Ge,
            Term::Const(gemstone::Oop::int(lo)),
        )
        .and(Pred::Cmp(
            Term::Path(v, path),
            CmpOp::Lt,
            Term::Const(gemstone::Oop::int(hi)),
        )),
    })
}

/// The clients of a phase advance in steps. In each step every client runs
/// its transaction's doIt, in parallel, and then the clients commit one at
/// a time, in an order that rotates from step to step. Concurrent transactions therefore overlap the
/// same way on every run: which ones conflict, and so how large each
/// session's workspace grows before a conflict discards it, follows from
/// the seed and not from how the host schedules the threads. With one
/// client the barrier never blocks.
struct Lockstep {
    barrier: Barrier,
    clients: usize,
    stop: AtomicBool,
}

impl Lockstep {
    fn new(clients: usize) -> Lockstep {
        Lockstep { barrier: Barrier::new(clients), clients, stop: AtomicBool::new(false) }
    }

    /// Start a step; false once the deadline has passed. One client
    /// decides, so all of them stop after the same step.
    fn next_step(&self, deadline: Instant) -> bool {
        if self.barrier.wait().is_leader() && Instant::now() >= deadline {
            self.stop.store(true, Ordering::Relaxed);
        }
        self.barrier.wait();
        !self.stop.load(Ordering::Relaxed)
    }
}

/// The transaction in flight in a step.
struct Pending {
    op: Op,
    text: String,
    id: u64,
    attempts: u32,
    start: Instant,
    start_ns: u64,
    /// The id of the transaction's root span (traced runs), reserved so
    /// its children can name it before it is recorded.
    span: u64,
}

/// One client: a closed loop, so its next transaction starts when the last
/// one has committed, with no think time.
struct Client<'a> {
    cfg: &'a Config,
    gs: &'a GemStone,
    t0: i64,
    client: usize,
    stream: Stream,
    /// The long-lived session (`oltp`, `analytics`), or the current
    /// transaction's own (`cold` logs in per transaction).
    session: Option<Session>,
    pending: Option<Pending>,
    log: Option<SpanLog>,
    phases: Vec<Histogram>,
    world: BasicWorld,
    touched: HashSet<u64>,
    next_txn: u64,
    steps: usize,
    /// Start of the timed phase; `None` during warm-up.
    timed_from: Option<Instant>,
    out: ClientRun,
}

impl<'a> Client<'a> {
    fn new(
        cfg: &'a Config,
        gs: &'a GemStone,
        t0: i64,
        client: usize,
        log: Option<SpanLog>,
    ) -> Self {
        let registry = &gs.telemetry().registry;
        Client {
            cfg,
            gs,
            t0,
            client,
            stream: Stream::new(cfg.workload, cfg.seed, client, cfg.employees),
            session: None,
            pending: None,
            phases: PHASES.iter().map(|(_, h)| registry.histogram(h)).collect(),
            log,
            world: BasicWorld::new(),
            touched: HashSet::new(),
            next_txn: 1,
            steps: 0,
            timed_from: None,
            out: ClientRun::default(),
        }
    }

    fn login(&mut self, parent: u64, txn: u64) -> Result<Session, String> {
        let gs = self.gs;
        match self.log.as_mut() {
            Some(log) => log.time("login", parent, txn, || gem(gs.login("system"), "login")).0,
            None => gem(gs.login("system"), "login"),
        }
    }

    /// Make the workspace or the caches steady before timing.
    fn warm_up(&mut self, sync: &Lockstep, model: &mut Model) -> Result<(), String> {
        if self.cfg.workload == Workload::Cold {
            while self.out.attempted < COLD_WARMUP_TXNS {
                self.step(sync, model);
            }
            if !self.out.mismatches.is_empty() {
                return Err(format!("warm-up: {:?}", self.out.mismatches));
            }
            self.out = ClientRun::default();
            if let Some(log) = self.log.as_mut() {
                log.spans.clear();
            }
            return Ok(());
        }
        let mut s = self.login(0, 0)?;
        gem(s.run("Staff do: [:e | e at: #Salary]. Staff size"), "touch every employee")?;
        gem(s.commit(), "commit warm-up")?;
        self.touched.extend(0..self.cfg.employees as u64);
        self.session = Some(s);
        Ok(())
    }

    fn run_until(&mut self, deadline: Instant, sync: &Lockstep, model: &mut Model) {
        self.timed_from = Some(Instant::now());
        while sync.next_step(deadline) {
            self.step(sync, model);
        }
    }

    /// One attempt of the pending transaction (a new one if none is
    /// pending): run its doIt, then commit in this client's turn.
    fn step(&mut self, sync: &Lockstep, model: &mut Model) {
        let ran = self.run_attempt();
        sync.barrier.wait();
        let mut committed = Ok(None);
        // The commit order rotates, so every client sometimes commits last.
        let my_turn = (self.client + self.steps) % sync.clients;
        self.steps += 1;
        for turn in 0..sync.clients {
            if turn == my_turn {
                // A conflict discards the workspace; the transaction is run
                // again and retried at once, still in this turn.
                let mut ran = ran.clone();
                committed = loop {
                    let c = ran.and_then(|v| Ok(self.commit_attempt()?.then_some(v)));
                    let attempts = self.pending.as_ref().map_or(0, |p| p.attempts);
                    if !matches!(c, Ok(None)) || attempts >= MAX_ATTEMPTS {
                        break c;
                    }
                    self.touched.clear();
                    ran = self.run_attempt();
                };
            }
            sync.barrier.wait();
        }
        self.settle(committed, model);
    }

    /// Start the next transaction, or another attempt of the pending one,
    /// and run its statements.
    fn run_attempt(&mut self) -> Result<i64, String> {
        if self.pending.is_none() {
            let op = self.stream.next_op();
            let id = self.next_txn;
            self.next_txn += 1;
            self.pending = Some(Pending {
                text: op.opal(self.t0),
                op,
                id,
                attempts: 0,
                start: Instant::now(),
                start_ns: self.log.as_ref().map_or(0, SpanLog::now),
                span: self.log.as_mut().map_or(0, SpanLog::reserve),
            });
        }
        let (id, root) = {
            let p = self.pending.as_mut().expect("pending");
            p.attempts += 1;
            (p.id, p.span)
        };
        if self.session.is_none() {
            self.touched.clear();
            let s = self.login(root, id)?;
            self.session = Some(s);
        }
        let p = self.pending.as_ref().expect("pending");
        let s = self.session.as_mut().expect("session");
        let Some(log) = self.log.as_mut() else {
            return run_int(s, &p.text);
        };
        // Traced: the first statement, `nil`, pays the begin-refresh.
        let (r, begin) = log.time("begin", root, id, || s.run("nil"));
        gem(r, "begin")?;
        self.out.begin_curve.push((begin.start_ns, self.touched.len(), begin.us()));
        // A history read is paired with the same read of the present; the
        // order alternates so neither side always finds the objects warm.
        let twin = p.op.present_twin().map(|t| t.opal(self.t0));
        let present_first = self.out.asof_us.len().is_multiple_of(2);
        if let (Some(twin), true) = (&twin, present_first) {
            log.time("present", root, id, || run_int(s, twin)).0?;
        }
        let (v, run) = log.time("run", root, id, || run_int(s, &p.text));
        let v = v?;
        if let Some(twin) = &twin {
            self.out.asof_us.push(run.us());
            if !present_first {
                log.time("present", root, id, || run_int(s, twin)).0?;
            }
        }
        Ok(v)
    }

    /// Commit the pending transaction: true when it committed, false on a
    /// conflict.
    fn commit_attempt(&mut self) -> Result<bool, String> {
        let (id, root) = self.pending.as_ref().map(|p| (p.id, p.span)).expect("pending");
        let s = self.session.as_mut().expect("session");
        let outcome = |r| match r {
            Ok(_) => Ok(true),
            Err(GemError::TransactionConflict { .. }) => Ok(false),
            Err(e) => Err(format!("commit: {e}")),
        };
        let Some(log) = self.log.as_mut() else {
            return outcome(s.commit());
        };
        let before: Vec<_> = self.phases.iter().map(Histogram::snapshot).collect();
        let (r, c) = log.time("commit", root, id, || s.commit());
        let after: Vec<_> = self.phases.iter().map(Histogram::snapshot).collect();
        // Split the commit span by the phase histograms when at most one
        // commit landed in each meanwhile (commits of a step run one at a
        // time, so it is this one). A commit that writes nothing records no
        // write phases. The phases are the engine's own timings, laid end
        // to end from the span's start: the ledger check fails the run if
        // they add up to more than the benchmark timed around the call.
        self.out.commits_traced += 1;
        let deltas: Vec<_> = after.iter().zip(&before).map(|(a, b)| a.diff(b)).collect();
        let ours = deltas.iter().all(|d| d.count <= 1) && deltas.iter().any(|d| d.count == 1);
        if ours {
            self.out.commits_split += 1;
            let mut at = c.start_ns;
            for ((kind, _), d) in PHASES.iter().zip(&deltas) {
                log.record(kind, c.id, id, at, at + d.sum * 1_000);
                at += d.sum * 1_000;
            }
        }
        outcome(r)
    }

    /// Account for the finished transaction: committed, or failed.
    fn settle(&mut self, committed: Result<Option<i64>, String>, model: &mut Model) {
        let outcome = match committed {
            Ok(None) => Err(format!("still conflicting after {MAX_ATTEMPTS} attempts")),
            Ok(Some(v)) => Ok(v),
            Err(e) => {
                if let Some(s) = self.session.as_mut() {
                    s.abort();
                }
                self.touched.clear();
                Err(e)
            }
        };
        let p = self.pending.take().expect("pending");
        let latency_us = p.start.elapsed().as_secs_f64() * 1e6;
        self.out.attempted += 1;
        self.out.commit_attempts += p.attempts as u64;
        if let Some(log) = self.log.as_mut() {
            log.record_as(p.span, "txn", 0, p.id, p.start_ns, log.now());
        }
        match outcome {
            Ok(v) => {
                if let Some(from) = self.timed_from {
                    let at = from.elapsed().as_secs_f64();
                    self.out.latency_us.entry(p.op.class()).or_default().push((at, latency_us));
                }
                self.out.committed += 1;
                if !p.op.writes() {
                    self.out.committed_ro += 1;
                }
                if p.op.class() == Class::Query {
                    self.out.committed_query += 1;
                }
                self.check(&p.op, v, model);
                self.touched.extend(touched_ids(&p.op));
            }
            Err(e) => {
                self.out.failed += 1;
                eprintln!("gembench: {} failed: {e}", p.text);
            }
        }
        if self.log.is_some() {
            let rows = match p.op {
                Op::RangeScan { lo } => model.current.as_deref().map(|c| Model::count(c, lo)),
                _ => Some(ID_RANGE as i64),
            };
            if let Err(e) = self.probe(&p.op, &p.text, p.id, rows) {
                self.out.mismatches.push(format!("probe after {:?}: {e}", p.op));
            }
        }
        if self.cfg.workload == Workload::Cold {
            self.session = None;
        }
    }

    /// Traced runs also time the compiler and the calculus directly; the
    /// calculus answer must have `rows` rows when the model knows.
    fn probe(&mut self, op: &Op, text: &str, txn: u64, rows: Option<i64>) -> Result<(), String> {
        let log = self.log.as_mut().expect("traced");
        let world = &mut self.world;
        gem(log.time("compile", 0, txn, || compile_doit(world, text)).0, "compile_doit")?;
        let lo = match *op {
            Op::RangeScan { lo } => lo,
            Op::IdRange { lo } => lo as i64,
            _ => return Ok(()),
        };
        let s = match self.session.as_mut() {
            Some(s) => s,
            None => return Ok(()),
        };
        let q = probe_query(s, self.cfg.workload, lo)?;
        // The next statement begins a transaction: let `nil` pay the
        // begin-refresh outside the timed call.
        gem(s.run("nil"), "begin before the query probe")?;
        let got = gem(log.time("query", 0, txn, || s.query(&q)).0, "Session::query")?.len();
        if rows.is_some_and(|want| want != got as i64) {
            return Err(format!("Session::query gave {got} rows, the model says {rows:?}"));
        }
        match s.commit() {
            Err(GemError::TransactionConflict { .. }) => self.touched.clear(),
            r => drop(gem(r, "commit after the query probe")?),
        }
        Ok(())
    }

    fn check(&mut self, op: &Op, v: i64, model: &mut Model) {
        if let Some(want) = model.expect(op) {
            if want != v {
                self.out.mismatches.push(format!("{op:?} returned {v}, the model says {want}"));
            }
        }
        match *op {
            Op::Raise { .. } => self.out.raises += 1,
            Op::Hire { id, salary, .. } => self.out.hired.push((id, salary)),
            Op::IdRange { lo } if model.current.is_none() => {
                // Concurrent raises only add: the payroll is at least the
                // set-up payroll of the range.
                let floor: i64 =
                    model.data.salaries[lo as usize..(lo + ID_RANGE) as usize].iter().sum();
                if v < floor {
                    self.out.mismatches.push(format!("{op:?} returned {v} < set-up {floor}"));
                }
            }
            _ => {}
        }
        model.apply(op);
    }
}

/// A measured phase: warm-up, then `seconds` of closed-loop clients.
#[derive(Default)]
struct Phase {
    wall_s: f64,
    run: ClientRun,
    delta: MetricsSnapshot,
}

fn merge(into: &mut ClientRun, c: ClientRun) {
    for (k, v) in c.latency_us {
        into.latency_us.entry(k).or_default().extend(v);
    }
    into.committed += c.committed;
    into.committed_ro += c.committed_ro;
    into.committed_query += c.committed_query;
    into.attempted += c.attempted;
    into.failed += c.failed;
    into.commit_attempts += c.commit_attempts;
    into.raises += c.raises;
    into.hired.extend(c.hired);
    into.mismatches.extend(c.mismatches);
    into.spans.extend(c.spans);
    into.asof_us.extend(c.asof_us);
    into.begin_curve.extend(c.begin_curve);
    into.commits_split += c.commits_split;
    into.commits_traced += c.commits_traced;
}

fn run_phase(cfg: &Config, built: &Built, data: &Data, traced: bool) -> Result<Phase, String> {
    let clients = cfg.clients();
    let barrier = Barrier::new(clients + 1);
    let sync = Lockstep::new(clients);
    let epoch = Instant::now();
    let secs = Duration::from_secs_f64(cfg.seconds);
    let (results, wall_s, delta) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (barrier, sync) = (&barrier, &sync);
                scope.spawn(move || {
                    let log = traced.then(|| SpanLog::new(epoch, c));
                    let mut client = Client::new(cfg, &built.gs, built.t0, c, log);
                    let mut model =
                        Model { data, current: (clients == 1).then(|| data.salaries.clone()) };
                    let warm = client.warm_up(sync, &mut model);
                    barrier.wait();
                    let deadline = Instant::now() + secs;
                    if warm.is_err() {
                        sync.stop.store(true, Ordering::Relaxed);
                    }
                    client.run_until(deadline, sync, &mut model);
                    warm?;
                    client.session = None;
                    let mut out = client.out;
                    out.spans = client.log.map(|l| l.spans).unwrap_or_default();
                    Ok::<_, String>((out, model.current))
                })
            })
            .collect();
        barrier.wait();
        let before = built.gs.database().metrics_snapshot();
        let start = Instant::now();
        let results: Vec<_> =
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect();
        let wall_s = start.elapsed().as_secs_f64();
        (results, wall_s, built.gs.database().metrics_snapshot().diff(&before))
    });
    let mut phase = Phase { wall_s, delta, ..Phase::default() };
    let mut final_salaries = None;
    for r in results {
        let (out, current) = r?;
        merge(&mut phase.run, out);
        final_salaries = final_salaries.or(current);
    }
    let errs = final_check(&built.gs, data, &phase.run, final_salaries.as_deref())?;
    phase.run.mismatches.extend(errs);
    Ok(phase)
}

/// Whole-database oracles after the clients stopped.
fn final_check(
    gs: &GemStone,
    data: &Data,
    run: &ClientRun,
    salaries: Option<&[i64]>,
) -> Result<Vec<String>, String> {
    let mut s = gem(gs.login("system"), "login")?;
    let mut errs = Vec::new();
    let mut expect = |what: &str, src: &str, want: i64| -> Result<(), String> {
        let got = run_int(&mut s, src)?;
        if got != want {
            errs.push(format!("{what}: got {got}, want {want}"));
        }
        Ok(())
    };
    expect(
        "budgets are conserved",
        "Dept inject: 0 into: [:a :d | a + (d at: #Budget)]",
        data.budgets.iter().sum(),
    )?;
    let payroll = match salaries {
        Some(cur) => cur.iter().sum(),
        None => {
            data.salaries.iter().sum::<i64>()
                + run.raises
                + run.hired.iter().map(|h| h.1).sum::<i64>()
        }
    };
    expect("payroll", "Staff inject: 0 into: [:a :e | a + (e at: #Salary)]", payroll)?;
    expect("Staff size", "Staff size", (data.employees() + run.hired.len()) as i64)?;
    for chunk in run.hired.chunks(200) {
        let ids: Vec<String> = chunk.iter().map(|h| h.0.to_string()).collect();
        expect(
            "hires found through the #Id directory",
            &format!(
                "#({}) inject: 0 into: [:a :k | a + (Staff select: [:e | e Id = k]) size]",
                ids.join(" ")
            ),
            chunk.len() as i64,
        )?;
    }
    Ok(errs)
}

/// A metric as printed: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// The outcome of one run.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

fn per(n: f64, d: f64) -> f64 {
    if d > 0.0 {
        n / d
    } else {
        0.0
    }
}

fn hist_mean(delta: &MetricsSnapshot, name: &str) -> f64 {
    delta.histogram(name).map_or(0.0, |h| per(h.sum as f64, h.count as f64))
}

fn med_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

/// Run the benchmark: `SETUPS` set-ups, the untimed warm-up and the timed
/// phase (plus a traced phase on a fresh set-up with `trace`).
pub fn run(cfg: &Config) -> Result<Report, String> {
    let data = Data::generate(cfg.seed, cfg.employees);
    let mut notes = Vec::new();
    let mut problems = Vec::new();
    let mut load_s = Vec::new();
    let mut reopen_s = Vec::new();
    let mut setup_s = Vec::new();
    let mut untraced = None;
    let mut traced = None;
    let mut rss = 0.0;
    for n in 0..SETUPS {
        let built = setup(cfg, &data)?;
        load_s.push(built.load_s);
        reopen_s.push(built.reopen_s);
        setup_s.push(built.load_s + built.reopen_s);
        if n == 0 {
            let z = built.sizes;
            notes.push(format!(
                "sizes: {} employees, {} live objects, {} data tracks; object cache {}, track cache {} tracks",
                cfg.employees,
                z.live_objects,
                z.data_tracks,
                z.object_cache_limit.map_or("unbounded".to_string(), |l| format!("{l} objects")),
                z.track_cache
            ));
            let curve: Vec<String> = built.batch_s.iter().map(|s| format!("{s:.3}")).collect();
            notes.push(format!("load: seconds per 1000 employees, in order: {}", curve.join(" ")));
            if cfg.workload == Workload::Cold
                && (z.object_cache_limit.is_none_or(|l| z.live_objects <= l)
                    || z.data_tracks <= z.track_cache)
            {
                problems.push("size check: the cold working set fits in a cache".to_string());
            }
            let phase = run_phase(cfg, &built, &data, false)?;
            rss = peak_rss_mb();
            untraced = Some((phase, built.sizes));
        } else if n == 1 && cfg.trace {
            traced = Some(run_phase(cfg, &built, &data, true)?);
        }
    }
    let (a, sizes) = untraced.expect("the first set-up runs the timed phase");
    let delta = &a.delta;
    let faults = delta.counter("storage.store.object_faults");
    if cfg.workload != Workload::Cold && faults > 0 {
        problems.push(format!(
            "size check: {faults} object faults in the timed phase of a resident workload"
        ));
    }
    if cfg.workload == Workload::Cold {
        for name in ["storage.store.object_faults", "storage.cache.misses", "storage.disk.reads"] {
            if delta.counter(name) == 0 {
                problems.push(format!("size check: no {name} in the timed phase of cold"));
            }
        }
    }
    for p in [Some(&a), traced.as_ref()].into_iter().flatten() {
        for m in p.run.mismatches.iter().take(20) {
            problems.push(format!("oracle: {m}"));
        }
        for class in Class::ALL {
            if p.run.latency_us.get(&class).is_none_or(Vec::is_empty) {
                problems.push(format!("no {} transaction committed", class.name()));
            }
        }
    }
    let committed = a.run.committed as f64;
    let txn_per_s = committed / a.wall_s;
    let mut metrics: Vec<Metric> = Vec::new();
    let mut m =
        |name: &str, value: f64, unit: &'static str| metrics.push((name.into(), value, unit));
    if !cfg.trace {
        m("setup_s", median(&setup_s), "s");
        m("txn_per_s", txn_per_s, "1/s");
        for (class, level) in Class::ALL.into_iter().zip(cfg.tail_levels) {
            let lat = a.run.latency_us.get(&class).map(Vec::as_slice).unwrap_or(&[]);
            match summarize(lat, cfg.seconds, level) {
                Ok(sum) => {
                    notes.push(format!(
                        "{}: {} samples ({} in the smallest of {} windows), p50 {:.1} us, \
                         p{} {:.1} us (median over the windows)",
                        class.name(),
                        sum.count,
                        sum.smallest_window,
                        crate::stats::TAIL_WINDOWS,
                        sum.p50,
                        level * 100.0,
                        sum.tail
                    ));
                    m(&format!("{}_p50_us", class.name()), sum.p50, "us");
                    m(&format!("{}_p99_us", class.name()), sum.tail, "us");
                }
                Err(e) => problems.push(format!("{} tail: {e}", class.name())),
            }
        }
        m(
            "disk_bytes_per_txn",
            per(delta.counter("storage.disk.bytes_written") as f64, committed),
            "B",
        );
        m("peak_rss_mb", rss, "MiB");
        m(
            "success_rate",
            per((a.run.attempted - a.run.failed) as f64, a.run.attempted as f64),
            "ratio",
        );
    } else {
        let b = traced.as_ref().expect("traced phase");
        let ledger = Ledger::build(&b.run.spans);
        if ledger.violations > 0 {
            problems.push(format!("ledger: {} spans outlast their parent", ledger.violations));
        }
        let path = cfg.workdir.join(format!("spans-{}.tsv", cfg.workload.name()));
        match crate::trace::write_spans(&path, &b.run.spans) {
            Ok(()) => {
                notes.push(format!("spans: {} written to {}", b.run.spans.len(), path.display()))
            }
            Err(e) => notes.push(format!("spans: not written ({e})")),
        }
        let c = |n: &str| delta.counter(n) as f64;
        let dur = |k: &str| ledger.durations_us.get(k).map(|v| med_or_zero(v)).unwrap_or(0.0);
        m("opal.compile_us", dur("compile"), "us");
        m("opal.dispatches_per_txn", per(c("opal.interp.dispatches"), committed), "count");
        m("opal.sends_per_txn", per(c("opal.interp.sends"), committed), "count");
        m(
            "opal.static_ro_share",
            per(c("opal.effects.static_ro_commits"), a.run.committed_ro as f64),
            "ratio",
        );
        m("session.begin_us", dur("begin"), "us");
        m("session.run_us", dur("run"), "us");
        m("session.commit_us", dur("commit"), "us");
        m("session.login_us", dur("login"), "us");
        let touched: Vec<f64> = b.run.begin_curve.iter().map(|p| p.1 as f64).collect();
        m("session.touched_employees", med_or_zero(&touched), "count");
        m("calculus.query_us", dur("query"), "us");
        let queries = a.run.committed_query as f64;
        m("calculus.rows_scanned_per_query", per(c("calculus.rows_scanned"), queries), "count");
        m("calculus.index_hits_per_query", per(c("calculus.index_hits"), queries), "count");
        m(
            "calculus.rows_out_per_scanned",
            per(c("calculus.rows_out"), c("calculus.rows_scanned") + c("calculus.index_rows")),
            "ratio",
        );
        m("txn.commit_attempts_per_txn", per(a.run.commit_attempts as f64, committed), "count");
        m("txn.conflict_share", per(c("txn.conflicts"), a.run.commit_attempts as f64), "ratio");
        m("txn.validation_us", hist_mean(delta, "commit.phase.validation_us"), "us");
        m("temporal.asof_read_us", med_or_zero(&b.run.asof_us), "us");
        m("temporal.present_read_us", dur("present"), "us");
        m("storage.safe_write_us", hist_mean(delta, "commit.phase.safe_write_us"), "us");
        m("storage.fsync_us", hist_mean(delta, "commit.phase.fsync_us"), "us");
        m(
            "storage.objects_written_per_txn",
            per(c("storage.store.objects_written"), committed),
            "count",
        );
        m("storage.disk_writes_per_txn", per(c("storage.disk.writes"), committed), "count");
        m("storage.fsyncs_per_txn", per(c("storage.disk.fsyncs"), committed), "count");
        m(
            "storage.object_faults_per_txn",
            per(c("storage.store.object_faults"), committed),
            "count",
        );
        m("storage.disk_reads_per_txn", per(c("storage.disk.reads"), committed), "count");
        m(
            "storage.track_cache_hit_rate",
            per(c("storage.cache.hits"), c("storage.cache.hits") + c("storage.cache.misses")),
            "ratio",
        );
        m("storage.cache_evictions_per_txn", per(c("storage.cache.evictions"), committed), "count");
        m("storage.live_objects", sizes.live_objects as f64, "count");
        m("storage.data_tracks", sizes.data_tracks as f64, "count");
        m("storage.object_cache_limit", sizes.object_cache_limit.unwrap_or(0) as f64, "count");
        m("storage.track_cache_tracks", sizes.track_cache as f64, "count");
        m("setup.load_s", median(&load_s), "s");
        m("setup.reopen_s", median(&reopen_s), "s");
        let traced_tps = b.run.committed as f64 / b.wall_s;
        m("trace.untraced_txn_per_s", txn_per_s, "1/s");
        m("trace.traced_txn_per_s", traced_tps, "1/s");
        m("trace.overhead", per(traced_tps, txn_per_s), "ratio");
        m(
            "trace.uncovered_share",
            per(ledger.txn_uncovered_ns as f64, ledger.txn_ns as f64),
            "ratio",
        );
        m(
            "trace.commit_split_share",
            per(b.run.commits_split as f64, b.run.commits_traced as f64),
            "ratio",
        );
        m("trace.ledger_violations", ledger.violations as f64, "count");
        for kind in SPAN_KINDS {
            let ns = ledger.self_ns.get(kind).copied().unwrap_or(0) as f64;
            m(&format!("self.{kind}_us"), per(ns / 1e3, ledger.txns as f64), "us");
        }
        let mut curve = b.run.begin_curve.clone();
        curve.sort_by_key(|p| p.0);
        notes.extend(begin_growth(&curve));
    }
    let correct = problems.is_empty();
    for p in &problems {
        notes.push(format!("FAILED {p}"));
    }
    Ok(Report { correct, attempted: a.run.attempted, failed: a.run.failed, metrics, notes })
}

/// `session.begin_us` beside `session.touched_employees`, in ten slices of
/// the traced phase, so workspace growth shows as a curve.
fn begin_growth(curve: &[(u64, usize, f64)]) -> Vec<String> {
    if curve.is_empty() {
        return Vec::new();
    }
    let slice = curve.len().div_ceil(10);
    let mut out = vec!["begin-refresh growth: touched employees -> median session.begin_us".into()];
    for (i, part) in curve.chunks(slice).enumerate() {
        let touched: Vec<f64> = part.iter().map(|p| p.1 as f64).collect();
        let begin: Vec<f64> = part.iter().map(|p| p.2).collect();
        out.push(format!("  slice {i}: {:.0} -> {:.1} us", median(&touched), median(&begin)));
    }
    out
}

/// Span kinds that can appear as `self.<kind>_us` metrics.
const SPAN_KINDS: [&str; 12] = [
    "begin",
    "commit",
    "commit.fsync",
    "commit.publish",
    "commit.safe_write",
    "commit.validation",
    "compile",
    "login",
    "present",
    "query",
    "run",
    "txn",
];
