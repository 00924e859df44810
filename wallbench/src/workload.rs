//! The benchmark's workloads: one job shape each, the task factory that
//! builds it, and the seeded fault plan of the recovery workload.

use std::path::Path;
use std::time::Duration;

use acr::apps::Hpccg;
use acr::integration::{JacobiHaloTask, MiniAppTask};
use acr::obs::ObsConfig;
use acr::runtime::{DetectionMethod, FaultAction, FaultScript, JobConfig, Scheme, Task, Trigger};
use acr::runtime::{TcpConfig, TransportKind};

/// Which kernel a workload runs, and at what block size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    /// `JacobiHaloTask`: Jacobi3D split along X with halo messages.
    JacobiHalo { nx: usize, ny: usize, nz: usize },
    /// `MiniAppTask<Hpccg>`: one CG block per rank.
    Hpccg { nx: usize, ny: usize, nz: usize },
}

/// One workload: a job shape run over and over in a closed loop.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub app: App,
    pub ranks: usize,
    pub iters: u64,
    pub tcp: bool,
    pub detection: DetectionMethod,
    /// Inject one crash and one 1-bit SDC per job, journal to a fresh
    /// `persist_dir`.
    pub recover: bool,
}

/// Shared by every workload (the paper's defaults in this runtime).
pub const CHECKPOINT_INTERVAL: Duration = Duration::from_millis(50);
/// Per-node ring capacity: far above the events one job emits, so the
/// recorder never drops (checked per job).
pub const RING_CAPACITY: usize = 1 << 16;

/// The workloads `BENCHMARK.json` lists. Why these two, and the two left
/// out, is in `NOTES.md`.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "halo-tcp",
        app: App::JacobiHalo {
            nx: 16,
            ny: 16,
            nz: 32,
        },
        ranks: 2,
        iters: 600,
        tcp: true,
        detection: DetectionMethod::ChunkedChecksum,
        recover: false,
    },
    Workload {
        name: "recover-persist",
        app: App::Hpccg {
            nx: 40,
            ny: 40,
            nz: 40,
        },
        ranks: 1,
        iters: 200,
        tcp: false,
        detection: DetectionMethod::ChunkedChecksum,
        recover: true,
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// The job configuration. `tcp` may override the workload's transport
    /// (the in-process twin), `recorder` switches the flight recorder.
    pub fn config(&self, tcp: bool, recorder: bool, persist: Option<&Path>) -> JobConfig {
        let mut b = JobConfig::builder()
            .ranks(self.ranks)
            .spares(1)
            .scheme(Scheme::Strong)
            .detection(self.detection)
            .checkpoint_interval(CHECKPOINT_INTERVAL)
            .max_duration(Duration::from_secs(60))
            .obs(ObsConfig {
                enabled: recorder,
                ring_capacity: RING_CAPACITY,
                job: None,
            })
            .transport(if tcp {
                TransportKind::Tcp(TcpConfig::default())
            } else {
                TransportKind::InProcess
            });
        if let Some(dir) = persist {
            b = b.persist_dir(dir);
        }
        b.build().expect("workload configurations are valid")
    }

    /// The task factory handed to `Job::run`.
    pub fn factory(&self) -> impl Fn(usize, usize) -> Box<dyn Task> + Send + Sync + 'static {
        let (app, ranks, iters) = (self.app, self.ranks, self.iters);
        move |rank, _task| -> Box<dyn Task> {
            match app {
                App::JacobiHalo { nx, ny, nz } => {
                    Box::new(JacobiHaloTask::new(rank, ranks, nx, ny, nz, iters))
                }
                App::Hpccg { nx, ny, nz } => {
                    Box::new(MiniAppTask::new(Hpccg::new(nx, ny, nz), iters))
                }
            }
        }
    }
}

/// The faults one `recover-persist` job injects, drawn from the run seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    pub sdc_iter: u64,
    pub sdc_replica: u8,
    /// Seeds the runtime's choice of the flipped bit.
    pub sdc_seed: u64,
    pub crash_iter: u64,
    pub crash_replica: u8,
}

/// SDC lands early and is detected and rolled back long before the crash,
/// which lands late enough that verified checkpoints exist and early
/// enough that recovery and rework finish inside the job.
pub const SDC_WINDOW: (u64, u64) = (50, 80);
pub const CRASH_WINDOW: (u64, u64) = (120, 150);

impl FaultPlan {
    pub fn draw(seed: u64, job: u64) -> FaultPlan {
        let mut s = seed ^ job.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut next = || splitmix64(&mut s);
        FaultPlan {
            sdc_iter: SDC_WINDOW.0 + next() % (SDC_WINDOW.1 - SDC_WINDOW.0),
            sdc_replica: (next() % 2) as u8,
            sdc_seed: next(),
            crash_iter: CRASH_WINDOW.0 + next() % (CRASH_WINDOW.1 - CRASH_WINDOW.0),
            crash_replica: (next() % 2) as u8,
        }
    }

    pub fn script(&self) -> FaultScript {
        let mut script = FaultScript::new();
        script.push(
            Trigger::AtIteration(self.sdc_iter),
            FaultAction::Sdc {
                replica: self.sdc_replica,
                rank: 0,
                seed: self.sdc_seed,
                bits: 1,
            },
        );
        script.push(
            Trigger::AtIteration(self.crash_iter),
            FaultAction::Crash {
                replica: self.crash_replica,
                rank: 0,
            },
        );
        script
    }
}

fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
