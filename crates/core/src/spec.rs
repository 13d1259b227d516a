//! One run as one line of text: [`RunSpec`], whose docs give the grammar.

use std::fmt;
use std::str::FromStr;

use pgas::{ArrivalProcess, ArrivalSpec, FaultPlan, MachineModel};
use uts_tree::presets::{self, Preset};
use uts_tree::{GeoShape, TreeKind, TreeSpec};

use crate::config::{Algorithm, ConfigError, RunConfig};
use crate::sched::policy::{StealPolicyKind, VictimPolicy};
use crate::workload::{DagWorkload, ForkJoin, RandomLayered, Wavefront};
use crate::{run_native, run_service_sim, run_sim, RunReport, TaskGen, UtsGen};

/// A name table: each value with the short name a spec line gives it.
type Table<T, const N: usize> = [(&'static str, T); N];

/// The short name every command line takes for an algorithm (`alg=`,
/// `uts_cli -A`), read both ways.
pub const ALGORITHM_NAMES: Table<Algorithm, 6> = [
    ("sharedmem", Algorithm::SharedMem),
    ("term", Algorithm::Term),
    ("rapdif", Algorithm::TermRapdif),
    ("distmem", Algorithm::DistMem),
    ("mpi", Algorithm::MpiWs),
    ("hier", Algorithm::Hier),
];
const MACHINES: Table<fn() -> MachineModel, 4> = [
    ("kittyhawk", MachineModel::kittyhawk),
    ("topsail", MachineModel::topsail),
    ("altix", MachineModel::altix),
    ("smp", MachineModel::smp),
];
const PRESETS: Table<fn() -> Preset, 6> = [
    ("tiny", presets::t_tiny),
    ("s", presets::t_s),
    ("m", presets::t_m),
    ("l", presets::t_l),
    ("xl", presets::t_xl),
    ("xxl", presets::t_xxl),
];
const VICTIMS: Table<VictimPolicy, 2> = [("flat", VictimPolicy::Flat), ("hier", VictimPolicy::Hier)];
const STEALS: Table<StealPolicyKind, 3> =
    [("one", StealPolicyKind::One), ("half", StealPolicyKind::Half), ("adaptive", StealPolicyKind::Adaptive)];
const CONDUCTORS: Table<Conductor, 3> =
    [("fiber", Conductor::Fiber), ("reference", Conductor::Reference), ("native", Conductor::Native)];
const FAULT_BASES: Table<fn(u64) -> FaultPlan, 3> =
    [("seeded", FaultPlan::seeded), ("crashy", FaultPlan::crashy), ("partitioned", FaultPlan::partitioned)];

/// A `faults=` override field: a `u32` with its bound, or nanoseconds.
#[derive(Clone, Copy)]
enum Field {
    U32(fn(&mut FaultPlan) -> &mut u32, u32),
    Ns(fn(&mut FaultPlan) -> &mut u64),
}
/// Per-mille rates are at most 1000; x16 multipliers are any `u32`.
const PM: u32 = 1000;
const X16: u32 = u32::MAX;

/// The override fields in print order: each rate before the windows it
/// borrows, so a printed plan reads back bit-equal.
const FAULT_FIELDS: Table<Field, 21> = [
    ("window", Field::Ns(|f| &mut f.window_ns)),
    ("spike", Field::U32(|f| &mut f.spike_per_mille, PM)),
    ("spike_mult", Field::U32(|f| &mut f.spike_mult_x16, X16)),
    ("stall", Field::U32(|f| &mut f.stall_per_mille, PM)),
    ("straggler", Field::U32(|f| &mut f.straggler_per_mille, PM)),
    ("straggler_mult", Field::U32(|f| &mut f.straggler_mult_x16, X16)),
    ("lock_mult", Field::U32(|f| &mut f.lock_mult_x16, X16)),
    ("loss", Field::U32(|f| &mut f.loss_per_mille, PM)),
    ("dup", Field::U32(|f| &mut f.dup_per_mille, PM)),
    ("kill", Field::U32(|f| &mut f.kill_per_mille, PM)),
    ("kill_min", Field::Ns(|f| &mut f.kill_min_ns)),
    ("kill_span", Field::Ns(|f| &mut f.kill_span_ns)),
    ("partition", Field::U32(|f| &mut f.partition_per_mille, PM)),
    ("partition_min", Field::Ns(|f| &mut f.partition_min_ns)),
    ("partition_span", Field::Ns(|f| &mut f.partition_span_ns)),
    ("partition_dur", Field::Ns(|f| &mut f.partition_dur_ns)),
    ("gray", Field::U32(|f| &mut f.gray_per_mille, PM)),
    ("gray_min", Field::Ns(|f| &mut f.gray_min_ns)),
    ("gray_span", Field::Ns(|f| &mut f.gray_span_ns)),
    ("gray_stall", Field::Ns(|f| &mut f.gray_stall_ns)),
    ("restart", Field::Ns(|f| &mut f.restart_after_ns)),
];

/// What executes a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Conductor {
    /// The simulator's fiber conductor (`RunConfig::sim_lookahead` on).
    Fiber,
    /// The simulator's reference conductor: the naive policy (no windows) on
    /// the same substrate, the same virtual results, only slower.
    Reference,
    /// Real OS threads (`run_native`): no crash-class faults, no arrivals.
    Native,
}

/// The tasks a run executes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Workload {
    /// A UTS tree: the batch tree, or request 0's tree in a service run.
    Tree(TreeSpec),
    /// A chain of fork-join diamonds.
    ForkJoin(ForkJoin),
    /// A wavefront grid.
    Wavefront(Wavefront),
    /// The arguments of [`RandomLayered::new`], which draws the edges.
    #[allow(missing_docs)]
    Layered { layers: u32, width: u32, edge_pm: u32, seed: u64 },
}

/// A complete run, written as one line of words separated by spaces: the
/// machine first, then `key=value` words in any order.
///
/// ```text
/// <machine> p=<threads> (tree=<tree> | dag=<dag>) alg=<alg> k=<chunk>
///     [poll=<nodes>] [seed=<u64>] [victims=flat|hier] [steal=one|half|adaptive]
///     [faults=<base>[,<field>=<n>]...] [timeout=<ns>] [arrivals=<law>]
///     [conductor=fiber|reference|native]
///
/// machine  kittyhawk | topsail | altix | smp
/// tree     tiny | s | m | l | xl | xxl   (uts_tree::presets)
///          | binomial(seed,b0,m,q) | geometric(seed,b0,depth)
/// dag      forkjoin(levels,width,seed) | wavefront(rows,cols,seed)
///          | layered(layers,width,edge_pm,seed)
/// alg      sharedmem | term | rapdif | distmem | mpi | hier, or a paper label
/// base     none | seeded(seed) | crashy(seed) | partitioned(seed)   (FaultPlan's constructors)
/// field    window spike spike_mult stall straggler straggler_mult lock_mult loss dup
///          kill kill_min kill_span partition partition_min partition_span partition_dur
///          gray gray_min gray_span gray_stall restart
/// law      poisson(seed,requests,rate) | mmpp(seed,requests,lo,hi,dwell_ns)
/// ```
///
/// For example `topsail p=6 tree=tiny alg=term k=2 faults=crashy(8)
/// timeout=25000`. Fault fields are [`FaultPlan`]'s without the unit
/// suffix: `spike stall straggler loss dup kill partition gray` are
/// per-mille rates (0..=1000), the `_mult` fields x16 multipliers, the rest
/// nanoseconds. A field override enables the plan, and a rate set on a plan
/// with no window borrows one: `kill=` > 0 with `kill_min` and `kill_span`
/// both 0 takes [`FaultPlan::crashy`]'s, `partition=` / `gray=` > 0 with
/// `partition_span` / `gray_span` 0 take [`FaultPlan::partitioned`]'s start
/// window and duration / stall. A later window field overrides a lent one.
/// `arrivals=` makes a service run; it needs a tree and a simulated
/// conductor.
///
/// `Display` leaves out every field at its [`RunConfig::new`] default (and
/// `conductor=fiber`), writes a plan from the base that needs the fewest
/// overrides, and writes floats in Rust's shortest round-trip form, so
/// `FromStr` gives back a bit-equal value. Two values have no text: a
/// disabled plan other than [`FaultPlan::none`] (inert; it prints `none`),
/// and arrivals whose `start_ns` is not 0.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunSpec {
    /// Machine model, by short name.
    pub machine: &'static str,
    /// Threads.
    pub p: usize,
    /// What runs.
    pub workload: Workload,
    /// [`RunConfig::algorithm`].
    pub alg: Algorithm,
    /// [`RunConfig::chunk_size`].
    pub k: usize,
    /// [`RunConfig::poll_interval`].
    pub poll: u64,
    /// [`RunConfig::seed`].
    pub seed: u64,
    /// [`RunConfig::victim_policy`].
    pub victims: Option<VictimPolicy>,
    /// [`RunConfig::steal_policy`].
    pub steal: Option<StealPolicyKind>,
    /// [`RunConfig::faults`].
    pub faults: FaultPlan,
    /// [`RunConfig::steal_timeout_ns`].
    pub timeout: Option<u64>,
    /// Open-loop request arrivals: `Some` makes a service run.
    pub arrivals: Option<ArrivalSpec>,
    /// What executes the run.
    pub conductor: Conductor,
}

impl RunSpec {
    /// A batch run of `cfg` (all but its `trace` flag) on `p` threads of
    /// `machine` (a short name; [`RunSpec::run`] panics on any other).
    pub fn new(machine: &'static str, p: usize, workload: Workload, cfg: &RunConfig) -> RunSpec {
        RunSpec {
            machine,
            p,
            workload,
            alg: cfg.algorithm,
            k: cfg.chunk_size,
            poll: cfg.poll_interval,
            seed: cfg.seed,
            victims: cfg.victim_policy,
            steal: cfg.steal_policy,
            faults: cfg.faults,
            timeout: cfg.steal_timeout_ns,
            arrivals: None,
            conductor: if cfg.sim_lookahead { Conductor::Fiber } else { Conductor::Reference },
        }
    }

    /// This spec with the `key=value` words of `words` set on it, left to
    /// right. Errors name the word.
    pub fn with(mut self, words: &str) -> Result<RunSpec, String> {
        for word in words.split_whitespace() {
            let (key, value) = word.split_once('=').ok_or_else(|| format!("'{word}' is not key=value"))?;
            self.set(key, value).map_err(|e| format!("{key}={value}: {e}"))?;
        }
        Ok(self)
    }

    /// The [`RunConfig`] this spec runs (tracing off).
    pub fn config(&self) -> RunConfig {
        RunConfig {
            poll_interval: self.poll,
            seed: self.seed,
            sim_lookahead: self.conductor != Conductor::Reference,
            faults: self.faults,
            steal_timeout_ns: self.timeout,
            victim_policy: self.victims,
            steal_policy: self.steal,
            ..RunConfig::new(self.alg, self.k)
        }
    }

    /// The machine model [`RunSpec::machine`] names.
    pub fn machine_model(&self) -> MachineModel {
        machine_by_name(self.machine).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The sequential rate a run's speedup divides by: the model's, on the
    /// simulator, whose makespan is that model's virtual time. A native run's
    /// makespan is host time, which no model rate divides, so `None`.
    pub fn modelled_seq_rate(&self) -> Option<f64> {
        (self.conductor != Conductor::Native).then(|| self.machine_model().seq_rate())
    }

    /// Execute the run: `run_service_sim` with arrivals, else `run_sim` or
    /// `run_native` by conductor, over the tree or the DAG.
    ///
    /// # Panics
    ///
    /// On a spec [`RunSpec::check`] refuses (as `FromStr` does), with the
    /// line in the message.
    pub fn run(&self) -> RunReport {
        if let Err(e) = self.check() {
            panic!("{self}: {e}");
        }
        match self.workload {
            Workload::Tree(tree) => match &self.arrivals {
                Some(a) => run_service_sim(self.machine_model(), self.p, &UtsGen::new(tree), &self.config(), a),
                None => self.batch(&UtsGen::new(tree)),
            },
            Workload::ForkJoin(dag) => self.batch(&DagWorkload::new(dag)),
            Workload::Wavefront(dag) => self.batch(&DagWorkload::new(dag)),
            Workload::Layered { layers, width, edge_pm, seed } => {
                self.batch(&DagWorkload::new(RandomLayered::new(layers, width, edge_pm, seed)))
            }
        }
    }

    fn batch<G: TaskGen>(&self, gen: &G) -> RunReport {
        let (machine, cfg) = (self.machine_model(), self.config());
        match self.conductor {
            Conductor::Native => run_native(machine, self.p, gen, &cfg).unwrap_or_else(|e| panic!("{self}: {e}")),
            _ => run_sim(machine, self.p, gen, &cfg),
        }
    }

    /// Whether the backend can run this spec: every line `FromStr` accepts
    /// passes, and so must a spec edited after parsing (`uts_cli --native`)
    /// before it runs. The error is the refusal's text.
    pub fn check(&self) -> Result<(), String> {
        let tree = matches!(self.workload, Workload::Tree(_));
        let native = self.conductor == Conductor::Native;
        match () {
            _ if self.p == 0 || self.k == 0 => Err("p= and k= must be at least 1".into()),
            _ if self.arrivals.is_some() && (!tree || native) => {
                Err("arrivals= needs tree= and a simulated conductor".into())
            }
            _ if native && self.faults.crash_active() => Err(ConfigError::CrashFaultsAreSimOnly.to_string()),
            _ => Ok(()),
        }
    }

    fn set(&mut self, key: &str, value: &str) -> Result<(), String> {
        match key {
            "p" => self.p = num(value)?,
            "tree" => self.workload = Workload::Tree(tree(value)?),
            "dag" => self.workload = dag(value)?,
            "alg" => self.alg = algorithm_by_name(value)?,
            "k" => self.k = num(value)?,
            "poll" => self.poll = num(value)?,
            "seed" => self.seed = num(value)?,
            "victims" => self.victims = Some(lookup(&VICTIMS, "victim policy", value)?.1),
            "steal" => self.steal = Some(lookup(&STEALS, "steal policy", value)?.1),
            "faults" => self.faults = faults(value)?,
            "timeout" => self.timeout = Some(num(value)?),
            "arrivals" => self.arrivals = Some(arrivals(value)?),
            "conductor" => self.conductor = lookup(&CONDUCTORS, "conductor", value)?.1,
            _ => return Err(format!("unknown key '{key}'")),
        }
        Ok(())
    }
}

impl FromStr for RunSpec {
    type Err = String;

    fn from_str(line: &str) -> Result<RunSpec, String> {
        let line = line.trim();
        let (machine, words) = line.split_once(' ').unwrap_or((line, ""));
        let has = |key: &str| words.split_whitespace().any(|w| w.starts_with(key));
        if !(has("p=") && has("alg=") && has("k=") && (has("tree=") || has("dag="))) {
            return Err(format!("'{line}' lacks one of p=, alg=, k=, tree= or dag="));
        }
        let (machine, _) = lookup(&MACHINES, "machine", machine)?;
        let unset = RunConfig::new(Algorithm::DistMem, 0);
        let spec = RunSpec::new(machine, 0, Workload::Tree(presets::t_tiny().spec), &unset).with(words)?;
        spec.check().map(|()| spec)
    }
}

impl fmt::Display for RunSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (alg, d) = (name_of(&ALGORITHM_NAMES, self.alg), RunConfig::new(self.alg, self.k));
        write!(f, "{} p={} {} alg={alg} k={}", self.machine, self.p, self.workload, self.k)?;
        let arrivals = self.arrivals.map(|a| match a.process {
            ArrivalProcess::Poisson { rate_per_sec: r } => format!("arrivals=poisson({},{},{r})", a.seed, a.n_requests),
            ArrivalProcess::Mmpp { rate_lo_per_sec: lo, rate_hi_per_sec: hi, mean_dwell_ns: dwell } => {
                format!("arrivals=mmpp({},{},{lo},{hi},{dwell})", a.seed, a.n_requests)
            }
        });
        let words = [
            (self.poll != d.poll_interval).then(|| format!("poll={}", self.poll)),
            (self.seed != d.seed).then(|| format!("seed={}", self.seed)),
            self.victims.map(|v| format!("victims={}", v.label())),
            self.steal.map(|s| format!("steal={}", s.label())),
            (self.faults != d.faults).then(|| format!("faults={}", faults_text(&self.faults))),
            self.timeout.map(|ns| format!("timeout={ns}")),
            arrivals,
            (self.conductor != Conductor::Fiber).then(|| format!("conductor={}", name_of(&CONDUCTORS, self.conductor))),
        ];
        words.into_iter().flatten().try_for_each(|word| write!(f, " {word}"))
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Workload::Tree(t) => match (PRESETS.iter().find(|(_, p)| p().spec == t), t.kind) {
                (Some((name, _)), _) => write!(f, "tree={name}"),
                (_, TreeKind::Binomial { b0, m, q }) => write!(f, "tree=binomial({},{b0},{m},{q})", t.seed),
                (_, TreeKind::Geometric { b0, gen_mx }) => write!(f, "tree=geometric({},{b0},{gen_mx})", t.seed),
            },
            Workload::ForkJoin(d) => write!(f, "dag=forkjoin({},{},{})", d.levels, d.width, d.seed),
            Workload::Wavefront(d) => write!(f, "dag=wavefront({},{},{})", d.rows, d.cols, d.seed),
            Workload::Layered { layers, width, edge_pm, seed } => {
                write!(f, "dag=layered({layers},{width},{edge_pm},{seed})")
            }
        }
    }
}

/// Algorithm by short name ([`ALGORITHM_NAMES`]) or paper label.
pub fn algorithm_by_name(name: &str) -> Result<Algorithm, String> {
    match Algorithm::all().into_iter().find(|a| a.label() == name) {
        Some(alg) => Ok(alg),
        None => lookup(&ALGORITHM_NAMES, "algorithm", name).map(|(_, alg)| alg),
    }
}

/// The short name [`algorithm_by_name`] resolves back to `alg`.
pub fn algorithm_name(alg: Algorithm) -> &'static str {
    name_of(&ALGORITHM_NAMES, alg)
}

/// Machine model by short name.
pub fn machine_by_name(name: &str) -> Result<MachineModel, String> {
    lookup(&MACHINES, "machine", name).map(|(_, model)| model())
}

/// Tree preset by short name.
pub fn preset_by_name(name: &str) -> Result<Preset, String> {
    lookup(&PRESETS, "tree preset", name).map(|(_, preset)| preset())
}

/// The entry of `table` called `name`, or an error listing the names.
fn lookup<T: Copy>(table: &[(&'static str, T)], what: &str, name: &str) -> Result<(&'static str, T), String> {
    table.iter().find(|(n, _)| *n == name).copied().ok_or_else(|| {
        let names: Vec<&str> = table.iter().map(|(n, _)| *n).collect();
        format!("unknown {what} '{name}' ({})", names.join("|"))
    })
}

fn name_of<T: Copy + PartialEq>(table: &[(&'static str, T)], value: T) -> &'static str {
    table.iter().find(|(_, v)| *v == value).map(|(n, _)| *n).expect("every variant is named")
}

fn num<T: FromStr>(value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("'{value}' is not a {}", std::any::type_name::<T>()))
}

/// A float that `ok` accepts (the asserts of the `TreeSpec` constructors).
fn float(value: &str, ok: fn(f64) -> bool, what: &str) -> Result<f64, String> {
    num(value).and_then(|x| if ok(x) { Ok(x) } else { Err(format!("'{value}' is not {what}")) })
}

/// `name(a,b,…)` as the name and its arguments.
fn call(value: &str) -> Result<(&str, Vec<&str>), String> {
    let (name, args) = value.strip_suffix(')').and_then(|v| v.split_once('(')).ok_or_else(|| {
        format!("'{value}' is not name(arguments)")
    })?;
    Ok((name, args.split(',').collect()))
}

fn tree(value: &str) -> Result<TreeSpec, String> {
    let Ok(tree) = call(value) else {
        return lookup(&PRESETS, "tree", value).map(|(_, preset)| preset().spec);
    };
    Ok(match tree {
        ("binomial", a) if a.len() == 4 => {
            let q = float(a[3], |q| (0.0..=1.0).contains(&q), "a probability")?;
            TreeSpec::binomial(num(a[0])?, num(a[1])?, num(a[2])?, q)
        }
        ("geometric", a) if a.len() == 3 => {
            TreeSpec::geometric(num(a[0])?, float(a[1], |b| b > 0.0, "positive")?, num(a[2])?, GeoShape::Fixed)
        }
        _ => return Err(format!("unknown tree '{value}' (a preset, or binomial or geometric)")),
    })
}

fn dag(value: &str) -> Result<Workload, String> {
    Ok(match call(value)? {
        ("forkjoin", a) if a.len() == 3 => {
            Workload::ForkJoin(ForkJoin { levels: num(a[0])?, width: num(a[1])?, seed: num(a[2])? })
        }
        ("wavefront", a) if a.len() == 3 => {
            Workload::Wavefront(Wavefront { rows: num(a[0])?, cols: num(a[1])?, seed: num(a[2])? })
        }
        ("layered", a) if a.len() == 4 => {
            Workload::Layered { layers: num(a[0])?, width: num(a[1])?, edge_pm: num(a[2])?, seed: num(a[3])? }
        }
        _ => return Err(format!("unknown DAG '{value}' (forkjoin, wavefront or layered)")),
    })
}

fn arrivals(value: &str) -> Result<ArrivalSpec, String> {
    match call(value)? {
        ("poisson", a) if a.len() == 3 => Ok(ArrivalSpec::poisson(num(a[0])?, num(a[1])?, num(a[2])?)),
        ("mmpp", a) if a.len() == 5 => {
            Ok(ArrivalSpec::mmpp(num(a[0])?, num(a[1])?, num(a[2])?, num(a[3])?, num(a[4])?))
        }
        _ => Err(format!("unknown arrival law '{value}' (poisson or mmpp)")),
    }
}

fn faults(value: &str) -> Result<FaultPlan, String> {
    let mut words = value.split(',');
    let mut plan = match words.next().map(|base| (base, call(base))) {
        Some(("none", _)) => FaultPlan::none(),
        Some((_, Ok((name, a)))) if a.len() == 1 => lookup(&FAULT_BASES, "fault plan", name)?.1(num(a[0])?),
        _ => return Err(format!("'{value}' does not start with none or a base(seed)")),
    };
    for word in words {
        let (field, n) = word.split_once('=').ok_or_else(|| format!("'{word}' is not field=value"))?;
        set_fault(&mut plan, field, n)?;
    }
    Ok(plan)
}

/// Override one field and enable the plan; a rate set on a plan with no
/// window borrows one ([`RunSpec`]'s rule).
fn set_fault(plan: &mut FaultPlan, field: &str, n: &str) -> Result<(), String> {
    match lookup(&FAULT_FIELDS, "fault field", field)?.1 {
        Field::Ns(at) => *at(plan) = num(n)?,
        Field::U32(at, max) => match num(n)? {
            x if x <= max => *at(plan) = x,
            _ => return Err(format!("{field}={n} is out of range (per-mille rates are 0..=1000)")),
        },
    }
    plan.enabled = true;
    let (crashy, part) = (FaultPlan::crashy(plan.seed), FaultPlan::partitioned(plan.seed));
    match field {
        "kill" if plan.kill_per_mille > 0 && plan.kill_min_ns == 0 && plan.kill_span_ns == 0 => {
            (plan.kill_min_ns, plan.kill_span_ns) = (crashy.kill_min_ns, crashy.kill_span_ns);
        }
        "partition" if plan.partition_per_mille > 0 && plan.partition_span_ns == 0 => {
            plan.partition_min_ns = part.partition_min_ns;
            plan.partition_span_ns = part.partition_span_ns;
            plan.partition_dur_ns = part.partition_dur_ns;
        }
        "gray" if plan.gray_per_mille > 0 && plan.gray_span_ns == 0 => {
            (plan.gray_min_ns, plan.gray_span_ns, plan.gray_stall_ns) = (part.gray_min_ns, part.gray_span_ns, part.gray_stall_ns);
        }
        _ => {}
    }
    Ok(())
}

/// `plan` as a `faults=` value: from each base, the overrides that rebuild
/// it under [`set_fault`]'s rule, in [`FAULT_FIELDS`] order; the shortest
/// text wins.
fn faults_text(plan: &FaultPlan) -> String {
    let get = |field: Field, plan: &FaultPlan| {
        let mut plan = *plan;
        match field {
            Field::U32(at, _) => u64::from(*at(&mut plan)),
            Field::Ns(at) => *at(&mut plan),
        }
    };
    let bases = FAULT_BASES.iter().map(|(name, base)| (format!("{name}({})", plan.seed), base(plan.seed)));
    std::iter::once(("none".to_string(), FaultPlan::none()))
        .chain(bases)
        .filter_map(|(mut text, mut at)| {
            for &(name, field) in &FAULT_FIELDS {
                let want = get(field, plan);
                if get(field, &at) != want {
                    text += &format!(",{name}={want}");
                    set_fault(&mut at, name, &want.to_string()).ok()?;
                }
            }
            (at == *plan).then_some(text)
        })
        .min_by_key(String::len)
        .unwrap_or_else(|| "none".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_and_machines_resolve() {
        assert!(["tiny", "s", "m", "l", "xl"].iter().all(|t| preset_by_name(t).is_ok()));
        assert!(["kittyhawk", "topsail", "altix", "smp"].iter().all(|m| machine_by_name(m).is_ok()));
    }

    #[test]
    fn algorithm_names_read_both_ways() {
        for alg in Algorithm::all() {
            assert_eq!(algorithm_by_name(algorithm_name(alg)), Ok(alg));
            assert_eq!(algorithm_by_name(alg.label()), Ok(alg));
        }
    }

    #[test]
    fn native_runs_have_no_modelled_rate() {
        let sim: RunSpec = "kittyhawk p=2 tree=tiny alg=distmem k=8".parse().unwrap();
        assert_eq!(
            sim.modelled_seq_rate(),
            Some(MachineModel::kittyhawk().seq_rate())
        );
        let native = RunSpec {
            conductor: Conductor::Native,
            ..sim
        };
        assert_eq!(native.modelled_seq_rate(), None);
    }

    #[test]
    fn unknown_names_list_the_options() {
        let e = preset_by_name("nope").unwrap_err();
        assert!(e.contains("unknown tree preset 'nope'") && e.contains("tiny|s|m"), "{e}");
        assert_eq!(
            algorithm_by_name("push").unwrap_err(),
            "unknown algorithm 'push' (sharedmem|term|rapdif|distmem|mpi|hier)"
        );
    }

    #[test]
    fn lines_read_back_as_written() {
        for line in [
            "topsail p=6 tree=tiny alg=term k=2 faults=crashy(8) timeout=25000",
            "kittyhawk p=1024 tree=binomial(0,2000,2,0.499999995) alg=distmem k=8",
            "smp p=8 tree=geometric(5,2.2,6) alg=mpi k=3 poll=4 seed=9 victims=hier steal=adaptive",
            "altix p=64 dag=layered(6,16,150,7) alg=rapdif k=1 faults=seeded(3),kill=1000,restart=5 conductor=reference",
            "smp p=8 tree=binomial(23,4,2,0.4) alg=mpi k=2 faults=none,loss=3 arrivals=mmpp(29,10,2000,60000.5,1000000)",
        ] {
            let spec: RunSpec = line.parse().unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(spec.to_string(), line);
        }
    }

    #[test]
    fn native_runs_refuse_crash_plans() {
        let crash = "topsail p=2 tree=binomial(5,64,2,0.49666666666666665) alg=distmem k=4 faults=crashy(3)";
        let sim: RunSpec = crash.parse().expect("a simulated crash run is fine");
        let refusal = Err(ConfigError::CrashFaultsAreSimOnly.to_string());
        assert_eq!(RunSpec { conductor: Conductor::Native, ..sim }.check(), refusal);
        assert_eq!(format!("{crash} conductor=native").parse::<RunSpec>().map(|_| ()), refusal);
        // Message-level faults have a native analogue.
        let lossy: RunSpec = "smp p=2 tree=tiny alg=mpi k=2 faults=seeded(3) conductor=native".parse().unwrap();
        assert_eq!(lossy.check(), Ok(()));
    }
}
