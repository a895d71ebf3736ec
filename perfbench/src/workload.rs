//! The four workloads: seeded inputs, the queries each one serves, the
//! closed-loop request stream, and the independent oracle answers.
//!
//! Every query is sent as OQL text (the `examples/oql.rs` dialect). The
//! texts parse to exactly the graphs the repository's generators build
//! (`PaperSetup::fig3`, `ChainDb::chain_query`, `ClosureDb::closure_query`
//! and their siblings); the smoke test pins that equality.

use std::sync::Arc;

use oorq_datagen::{closure_catalog, ChainConfig, ChainDb, ClosureConfig, ClosureDb};
use oorq_datagen::{MusicConfig, MusicDb};
use oorq_exec::{eval_query_graph, ExecConfig, MethodRegistry};
use oorq_index::{IndexSet, PathIndex, SelectionIndex};
use oorq_prng::Prng;
use oorq_query::paper::music_catalog;
use oorq_query::parse_query;
use oorq_serve::ServerConfig;
use oorq_storage::{Database, StorageConfig, Value};

/// The benchmark's workloads, one layer loaded by each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's database and its six prepared queries, every request
    /// a plan-cache hit: the executor's object-oriented operators load.
    MusicWarm,
    /// Distinct ad-hoc query texts on a small music database, nearly
    /// every request a cache miss: the §4 optimizer loads.
    MusicCold,
    /// A flat two-relation join served with two worker lanes: the
    /// nested-loop join and the parallel operators load.
    ChainJoin,
    /// Transitive closure under an 8-page breaker budget: the recursive
    /// join inside `Fix` and the spilling breakers load.
    ClosureSpill,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const ALL: [Workload; 4] = [
    Workload::MusicWarm,
    Workload::MusicCold,
    Workload::ChainJoin,
    Workload::ClosureSpill,
];

/// Input sizes: the measured sizes, or tiny ones for the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark measures.
    Full,
    /// Sizes small enough for a test run in debug builds.
    Tiny,
}

/// How a session sends its requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Prepared once per session, then `Session::execute_prepared`.
    Prepared,
    /// Sent as text on every request through `Session::execute_text`.
    Text,
}

/// One request of the closed-loop stream.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    /// Index into [`Plan::queries`].
    pub query: usize,
    /// The session that sends it.
    pub session: usize,
}

/// What a workload serves and how.
pub struct Plan {
    /// The distinct query texts.
    pub queries: Vec<String>,
    /// The request stream, replayed cyclically: rounds that each serve
    /// the same mix of queries.
    pub stream: Vec<Request>,
    /// Requests per measurement window: a whole number of rounds, about
    /// a second of serving.
    pub window: usize,
    /// Number of sessions (closed-loop clients, served serially).
    pub sessions: usize,
    /// Prepared or text requests.
    pub mode: Mode,
    /// Whether every session runs each query once before timing.
    pub warm: bool,
    /// The server's configuration.
    pub config: ServerConfig,
}

/// The generated inputs a server is built from.
pub struct Inputs {
    /// The loaded database.
    pub db: Database,
    /// Its built indexes.
    pub indexes: IndexSet,
    /// Closure workload only: the node labels in chain order, from which
    /// the exact closure answer is constructed.
    pub chain_labels: Option<Vec<i64>>,
}

/// The `Influencer` view of the paper's §2.3, as text.
const INFLUENCER: &str = "view Influencer as
  select [master: x.master, disciple: x, gen: 1]
  from x in Composer
  where x.master <> null
  union
  select [master: i.master, disciple: x, gen: i.gen + 1]
  from i in Influencer, x in Composer
  where i.disciple = x.master;
";

/// The recursive `Path` view over `Edge`, as text.
const PATH: &str = "view Path as
  select [a: e.a, b: e.b] from e in Edge
  union
  select [a: p.a, b: e.b] from p in Path, e in Edge where p.b = e.a;
";

/// Breaker memory budget of the closure workload, in pages.
pub const SPILL_BUDGET_PAGES: u64 = 8;

impl Workload {
    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MusicWarm => "music-warm",
            Workload::MusicCold => "music-cold",
            Workload::ChainJoin => "chain-join",
            Workload::ClosureSpill => "closure-spill",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The queries, request stream and server configuration.
    pub fn plan(self, seed: u64, scale: Scale) -> Plan {
        // The stream's generator is kept apart from the data generators,
        // which take `seed` itself.
        let mut rng = Prng::new(seed ^ 0x5eed_5eed_5eed_5eed);
        match self {
            Workload::MusicWarm => {
                let mut queries = vec![fig3_text("harpsichord", 6, PROJ_NAME, ">=")];
                queries.push(format!(
                    "{INFLUENCER}select [name: i.disciple.name] from i in Influencer, c in Composer \
                     where i.master = c.master and c.name = \"Bach\""
                ));
                for g in 1..=4 {
                    queries.push(fig3_text("harpsichord", g, PROJ_NAME, ">="));
                }
                // Slots of one round. Figure 3 takes four of ten, so the
                // median is its latency; `gen >= 1`, the slowest, takes
                // two, so p90 falls inside its latency cluster rather
                // than on the edge between two queries. The sub-ms
                // push-join takes one.
                let slots = [0, 0, 0, 0, 1, 2, 2, 3, 4, 5];
                Plan {
                    stream: rounds(&mut rng, &slots, 2, 64),
                    window: 3 * slots.len(),
                    queries,
                    sessions: 2,
                    mode: Mode::Prepared,
                    warm: true,
                    config: ServerConfig::default(),
                }
            }
            Workload::MusicCold => {
                let instruments = match scale {
                    Scale::Full => 12,
                    Scale::Tiny => 3,
                };
                let mut queries = Vec::new();
                let mut shapes = 0;
                for gen in 1..=4 {
                    for op in [">=", "="] {
                        for proj in [PROJ_NAME, PROJ_NAME_GEN, PROJ_MASTER_NAME] {
                            for k in 0..instruments {
                                queries.push(fig3_text(&instrument_name(k), gen, proj, op));
                            }
                            shapes += 1;
                        }
                    }
                }
                // A cycle of `instruments` rounds sends every text once.
                // Round `r` sends each shape (generation bound, comparison,
                // projection) once, shape `c` with the instrument
                // `(r + c) mod instruments` (shuffled in seeded order), so
                // every round serves the same mix of shapes and a text
                // recurs only after all 288 have been sent, long after the
                // 64-plan LRU cache has evicted it.
                let mut stream = Vec::with_capacity(queries.len());
                for r in 0..instruments {
                    let mut round: Vec<usize> = (0..shapes)
                        .map(|c| c * instruments + (r + c) % instruments)
                        .collect();
                    rng.shuffle(&mut round);
                    stream.extend(round.into_iter().map(|query| Request { query, session: 0 }));
                }
                Plan {
                    stream,
                    window: 4 * shapes,
                    queries,
                    sessions: 1,
                    mode: Mode::Text,
                    warm: false,
                    config: ServerConfig::default(),
                }
            }
            Workload::ChainJoin => {
                let d = chain_config(seed, scale).domain;
                let queries = vec![
                    chain_text(d),
                    chain_text(d * 3 / 4),
                    chain_text(d / 2),
                    tail_text(d * 3 / 4),
                    tail_text(d / 4),
                ];
                // Slots of one round, ordered by cost the rounds sort as
                // tail/4, tail*3/4 (two), chain/2, chain*3/4, chain (two):
                // the median falls inside `chain/2`'s latency cluster and
                // p90 inside the full chain's.
                let slots = [0, 0, 1, 2, 3, 3, 4];
                let mut config = ServerConfig {
                    exec: ExecConfig {
                        threads: 2,
                        ..ExecConfig::default()
                    },
                    ..ServerConfig::default()
                };
                config.optimizer.threads = 2;
                Plan {
                    stream: rounds(&mut rng, &slots, 1, 64),
                    window: 3 * slots.len(),
                    queries,
                    sessions: 1,
                    mode: Mode::Prepared,
                    warm: true,
                    config,
                }
            }
            Workload::ClosureSpill => {
                let config = ServerConfig {
                    exec: ExecConfig {
                        memory_budget_pages: SPILL_BUDGET_PAGES,
                        ..ExecConfig::default()
                    },
                    ..ServerConfig::default()
                };
                Plan {
                    queries: vec![format!("{PATH}select [a: t.a, b: t.b] from t in Path")],
                    // A round is one request per session; a window of ten
                    // rounds is about two seconds.
                    stream: (0..2)
                        .map(|session| Request { query: 0, session })
                        .collect(),
                    window: 20,
                    sessions: 2,
                    mode: Mode::Prepared,
                    warm: true,
                    config,
                }
            }
        }
    }

    /// Generate the seeded inputs: data, indexes, and (closure only)
    /// the chain's node labels.
    pub fn inputs(self, seed: u64, scale: Scale) -> Inputs {
        match self {
            Workload::MusicWarm | Workload::MusicCold => {
                let mut m =
                    MusicDb::generate(Arc::new(music_catalog()), music_config(self, seed, scale));
                let mut indexes = IndexSet::new();
                indexes.add_path(PathIndex::build(
                    &mut m.db,
                    vec![
                        (m.composer, m.works_attr),
                        (m.composition, m.instruments_attr),
                    ],
                ));
                indexes.add_selection(SelectionIndex::build(&mut m.db, m.composer, m.name_attr));
                Inputs {
                    db: m.db,
                    indexes,
                    chain_labels: None,
                }
            }
            Workload::ChainJoin => Inputs {
                db: ChainDb::generate(chain_config(seed, scale)).db,
                indexes: IndexSet::new(),
                chain_labels: None,
            },
            Workload::ClosureSpill => {
                let (c, labels) = closure_db(seed, scale);
                Inputs {
                    db: c.db,
                    indexes: IndexSet::new(),
                    chain_labels: Some(labels),
                }
            }
        }
    }
}

/// The expected answer of every query, sorted, computed independently
/// of the optimizer and the streaming executor: music and chain answers
/// by the naive reference evaluator, the closure answer by construction.
pub fn oracle(inputs: &Inputs, queries: &[String]) -> Result<Vec<Vec<Vec<Value>>>, String> {
    if let Some(labels) = &inputs.chain_labels {
        let mut rows = Vec::new();
        for (i, &a) in labels.iter().enumerate() {
            for &b in &labels[i + 1..] {
                rows.push(vec![Value::Int(a), Value::Int(b)]);
            }
        }
        rows.sort();
        return Ok(vec![rows; queries.len()]);
    }
    let methods = MethodRegistry::new();
    queries
        .iter()
        .map(|text| {
            let graph =
                parse_query(inputs.db.catalog(), text).map_err(|e| format!("oracle: {e}"))?;
            let mut rows = eval_query_graph(&inputs.db, &methods, &graph)
                .map_err(|e| format!("oracle: {e}"))?
                .rows;
            rows.sort();
            Ok(rows)
        })
        .collect()
}

const PROJ_NAME: &str = "[name: i.disciple.name]";
const PROJ_NAME_GEN: &str = "[name: i.disciple.name, gen: i.gen]";
const PROJ_MASTER_NAME: &str = "[master: i.master.name, name: i.disciple.name]";

/// Figure 3 with a chosen instrument, generation bound and projection.
fn fig3_text(instrument: &str, gen: i64, proj: &str, op: &str) -> String {
    format!(
        "{INFLUENCER}select {proj} from i in Influencer \
         where i.master.works.instruments.name = \"{instrument}\" and i.gen {op} {gen}"
    )
}

/// `ChainDb::chain_query(limit)` over two relations, as text.
fn chain_text(limit: i64) -> String {
    format!(
        "select [first: r0.a, last: r1.b] from r0 in R0, r1 in R1 \
         where r0.a < {limit} and r0.b = r1.a"
    )
}

/// `ChainDb::selective_tail_query(limit)` over two relations, as text.
fn tail_text(limit: i64) -> String {
    format!("select [first: r0.a] from r0 in R0, r1 in R1 where r1.b < {limit} and r0.b = r1.a")
}

/// The music generator's instrument names (pool index 0 and 1 are
/// named, the rest numbered).
fn instrument_name(k: usize) -> String {
    match k {
        0 => "harpsichord".into(),
        1 => "flute".into(),
        n => format!("instrument{n}"),
    }
}

/// `rounds` seeded shuffles of `slots`, the sessions taking turns.
fn rounds(rng: &mut Prng, slots: &[usize], sessions: usize, rounds: usize) -> Vec<Request> {
    let mut out = Vec::new();
    for _ in 0..rounds {
        let mut round = slots.to_vec();
        rng.shuffle(&mut round);
        for query in round {
            let session = out.len() % sessions;
            out.push(Request { query, session });
        }
    }
    out
}

/// The music database: the paper's scale for `music-warm`, a small one
/// for `music-cold`.
pub fn music_config(w: Workload, seed: u64, scale: Scale) -> MusicConfig {
    let (chains, chain_len) = match (w, scale) {
        (Workload::MusicWarm, Scale::Full) => (10, 10),
        (_, Scale::Full) => (4, 5),
        (_, Scale::Tiny) => (2, 4),
    };
    MusicConfig {
        chains,
        chain_len,
        works_per_composer: 4,
        instruments_per_work: 3,
        instrument_pool: 12,
        harpsichord_fraction: 0.25,
        clustered: false,
        buffer_frames: 32,
        seed,
    }
}

/// Two relations of ~300 rows over a 64-value join domain.
pub fn chain_config(seed: u64, scale: Scale) -> ChainConfig {
    let (rows, domain) = match scale {
        Scale::Full => (300, 64),
        Scale::Tiny => (40, 16),
    };
    ChainConfig {
        relations: 2,
        rows,
        domain,
        seed,
    }
}

/// Closure chain length: past the spill cliff near 46 nodes at the
/// 8-page budget.
fn closure_nodes(scale: Scale) -> u32 {
    match scale {
        Scale::Full => 64,
        Scale::Tiny => 12,
    }
}

/// A linear chain whose node labels are a seeded permutation of
/// `0..n`, its edges inserted in seeded order. The closure holds every
/// `(labels[i], labels[j])` with `i < j`.
fn closure_db(seed: u64, scale: Scale) -> (ClosureDb, Vec<i64>) {
    let nodes = closure_nodes(scale);
    let mut rng = Prng::new(seed);
    let mut labels: Vec<i64> = (0..nodes as i64).collect();
    rng.shuffle(&mut labels);
    let mut edges: Vec<(i64, i64)> = labels.windows(2).map(|w| (w[0], w[1])).collect();
    rng.shuffle(&mut edges);
    let catalog = Arc::new(closure_catalog());
    let mut db = Database::new(Arc::clone(&catalog), StorageConfig::default());
    let edge = catalog.relation_by_name("Edge").expect("closure schema");
    for (a, b) in edges {
        db.insert_row(edge, vec![Value::Int(a), Value::Int(b)])
            .expect("insert edge");
    }
    (
        ClosureDb {
            db,
            config: ClosureConfig { nodes },
        },
        labels,
    )
}
