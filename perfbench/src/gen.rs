//! Seeded workload generators. Everything a run does is derived from
//! `--seed`; the file system only ever sees the generated ops.

use cedar_workload::rng::WorkloadRng;
use cedar_workload::{
    multi_client_workload, MakeDoParams, MultiClientParams, SizeDistribution, Step,
};
use std::collections::HashMap;

/// Closed-loop client threads per workload (the host has two CPUs).
pub const CLIENTS: usize = 2;

/// The seed kept out of tuning: a later claim must also hold on it.
pub const HELD_OUT_SEED: u64 = 1987;

/// Files on the MakeDo volumes (MakeDo's own files plus a cold
/// background population).
pub const MAKEDO_FILES: usize = 2_000;

/// Files on the 20k volumes, split evenly between the clients' slots.
pub const BULK_FILES: usize = 20_000;

/// Mutations in `crash_recover_20k`'s one-client burst before the crash.
pub const BURST_MUTATIONS: usize = 64;

/// The four workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Makedo2k,
    BulkUpdate20k,
    CrashRecover20k,
    MakedoReplSync,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Makedo2k,
        Workload::BulkUpdate20k,
        Workload::CrashRecover20k,
        Workload::MakedoReplSync,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Makedo2k => "makedo_2k",
            Workload::BulkUpdate20k => "bulk_update_20k",
            Workload::CrashRecover20k => "crash_recover_20k",
            Workload::MakedoReplSync => "makedo_repl_sync",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs on the MakeDo volume (else the 20k one).
    pub fn is_makedo(self) -> bool {
        matches!(self, Workload::Makedo2k | Workload::MakedoReplSync)
    }

    pub fn replicated(self) -> bool {
        self == Workload::MakedoReplSync
    }
}

/// A client's view of its own namespace: name → size of the newest
/// version, whose contents are `content_for(name, size)`.
pub type Oracle = HashMap<String, u64>;

/// The files a workload's volume is populated with, and each client's
/// share of them.
pub struct Population {
    /// Every file, in creation order.
    pub files: Vec<(String, u64)>,
    /// Per client: the files it owns (and only it touches).
    pub oracles: Vec<Oracle>,
}

fn derive(seed: u64, salt: u64) -> u64 {
    seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// MakeDo client scripts: `multi_client_workload` with zero think time
/// and the full MakeDo package per client (25 sources, 40 interfaces,
/// two compile rounds), so each client's reads sample ~65 file sizes
/// and the read tail does not hang on one seed's largest file.
pub fn makedo_scripts(seed: u64) -> Vec<cedar_workload::ClientScript> {
    multi_client_workload(MultiClientParams {
        clients: CLIENTS,
        makedo: MakeDoParams::default(),
        think_us: (0, 1),
        seed,
    })
}

/// Name of slot `slot` of `client` at generation `gen` on the 20k volume.
pub fn slot_name(client: usize, slot: usize, gen: u32) -> String {
    format!("bulk/c{client}/s{slot:05}.g{gen}")
}

/// Size of a 20k-volume file: 1–3 sectors, so 20k files fit the
/// Trident-class disk with room to churn.
fn small_size(rng: &mut WorkloadRng) -> u64 {
    rng.range(64, 1_536)
}

pub fn population(w: Workload, seed: u64) -> Population {
    let mut files = Vec::new();
    let mut oracles = vec![Oracle::new(); CLIENTS];
    if w.is_makedo() {
        for script in makedo_scripts(seed) {
            for step in &script.setup {
                if let Step::Create { name, bytes } = step {
                    files.push((name.clone(), *bytes));
                    oracles[script.id].insert(name.clone(), *bytes);
                }
            }
        }
        // Cold background files nobody touches: they only make the
        // name table (and the engine's published index) 2k entries big.
        let mut sizes = SizeDistribution::new(derive(seed, 1));
        for i in files.len()..MAKEDO_FILES {
            files.push((format!("pop/f{i:05}"), sizes.sample()));
        }
    } else {
        let per_client = BULK_FILES / CLIENTS;
        for (c, oracle) in oracles.iter_mut().enumerate() {
            let mut rng = WorkloadRng::new(derive(seed, 2 + c as u64));
            for s in 0..per_client {
                let name = slot_name(c, s, 0);
                let bytes = small_size(&mut rng);
                files.push((name.clone(), bytes));
                oracle.insert(name, bytes);
            }
        }
    }
    Population { files, oracles }
}

/// An endless closed-loop op stream for one client.
pub trait OpStream: Send {
    fn next_op(&mut self) -> Step;
}

/// A MakeDo client: its measured script, repeated. Each pass deletes
/// and recreates its outputs, so the script loops cleanly.
pub struct MakedoOps {
    steps: Vec<Step>,
    at: usize,
}

impl OpStream for MakedoOps {
    fn next_op(&mut self) -> Step {
        let s = self.steps[self.at].clone();
        self.at = (self.at + 1) % self.steps.len();
        s
    }
}

/// The §5.4 bulk updater over one client's slots: write the slot's next
/// generation, delete the old one, touch a slot, read a cold slot. The
/// population stays constant.
pub struct BulkOps {
    client: usize,
    rng: WorkloadRng,
    gens: Vec<u32>,
    queue: std::collections::VecDeque<Step>,
}

impl BulkOps {
    pub fn new(seed: u64, client: usize) -> Self {
        Self {
            client,
            rng: WorkloadRng::new(derive(seed, 100 + client as u64)),
            gens: vec![0; BULK_FILES / CLIENTS],
            queue: Default::default(),
        }
    }

    fn pick(&mut self) -> usize {
        self.rng.range(0, self.gens.len() as u64) as usize
    }

    /// The two mutations of one update: create the next generation, then
    /// delete the previous one.
    pub fn mutation(&mut self) -> [Step; 2] {
        let slot = self.pick();
        let old = slot_name(self.client, slot, self.gens[slot]);
        self.gens[slot] += 1;
        let new = slot_name(self.client, slot, self.gens[slot]);
        let bytes = small_size(&mut self.rng);
        [
            Step::Create { name: new, bytes },
            Step::Delete { name: old },
        ]
    }
}

impl OpStream for BulkOps {
    fn next_op(&mut self) -> Step {
        if self.queue.is_empty() {
            let [create, delete] = self.mutation();
            let touch = self.pick();
            let read = self.pick();
            self.queue.extend([
                create,
                delete,
                Step::Touch {
                    name: slot_name(self.client, touch, self.gens[touch]),
                },
                Step::Read {
                    name: slot_name(self.client, read, self.gens[read]),
                },
            ]);
        }
        self.queue.pop_front().expect("refilled above")
    }
}

/// Client `c`'s op stream for workload `w`.
pub fn client_ops(w: Workload, seed: u64, c: usize) -> Box<dyn OpStream> {
    if w.is_makedo() {
        let script = makedo_scripts(seed).swap_remove(c);
        Box::new(MakedoOps {
            steps: script.steps.into_iter().map(|t| t.step).collect(),
            at: 0,
        })
    } else {
        Box::new(BulkOps::new(seed, c))
    }
}

/// `crash_recover_20k`'s burst: client 0's first [`BURST_MUTATIONS`]
/// bulk mutations, from a stream of its own so it does not share a
/// prefix with `bulk_update_20k`'s.
pub fn crash_burst(seed: u64) -> Vec<Step> {
    let mut ops = BulkOps::new(derive(seed, 7), 0);
    (0..BURST_MUTATIONS / 2)
        .flat_map(|_| ops.mutation())
        .collect()
}

/// Post-recovery writes of crash-loop iteration `iter`: fresh creates
/// under a namespace of their own.
pub fn post_recovery_ops(seed: u64, iter: usize, n: usize) -> Vec<Step> {
    let mut rng = WorkloadRng::new(derive(seed, 1_000 + iter as u64));
    (0..n)
        .map(|k| Step::Create {
            name: format!("post/i{iter:04}/f{k:03}"),
            bytes: small_size(&mut rng),
        })
        .collect()
}
