//! The plain single-threaded reference every job's output is checked
//! against: the same kernels stepped in a loop, without the runtime, with
//! the final state packed in the task's checkpoint layout.

use std::time::Instant;

use acr::apps::{Face, Hpccg, Jacobi3d, MiniApp};
use acr::fault::SdcInjector;
use acr::pup::{pack, unpack, Pup, PupResult, Puper, RegionMapper};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::workload::{App, Workload, SDC_WINDOW};

/// A self-contained kernel in `MiniAppTask`'s checkpoint layout: the
/// kernel's own PUP, then the iteration target.
#[derive(Clone)]
pub struct AppState<A> {
    pub app: A,
    pub total: u64,
}

impl<A: Pup> Pup for AppState<A> {
    fn pup(&mut self, p: &mut dyn Puper) -> PupResult {
        self.app.pup(p)?;
        p.pup_u64(&mut self.total)
    }
}

/// One rank of the halo-exchanging Jacobi in `JacobiHaloTask`'s layout:
/// the block, its place in the decomposition, and the received halos
/// not yet consumed.
pub struct HaloState {
    pub block: Jacobi3d,
    pub rank: usize,
    pub ranks: usize,
    pub total: u64,
    pub lo: Vec<(u64, Vec<f64>)>,
    pub hi: Vec<(u64, Vec<f64>)>,
}

impl Pup for HaloState {
    fn pup(&mut self, p: &mut dyn Puper) -> PupResult {
        self.block.pup(p)?;
        p.pup_usize(&mut self.rank)?;
        p.pup_usize(&mut self.ranks)?;
        p.pup_u64(&mut self.total)?;
        for pending in [&mut self.lo, &mut self.hi] {
            let n = p.pup_len(pending.len())?;
            pending.resize(n, (0, Vec::new()));
            for (i, d) in pending.iter_mut() {
                p.pup_u64(i)?;
                d.pup(p)?;
            }
        }
        Ok(())
    }
}

/// The reference outcome of one workload job.
pub struct Reference {
    /// Packed final state per rank (task 0; every workload has one task
    /// per rank).
    pub finals: Vec<Vec<u8>>,
    /// Wall seconds of one kernel step of one rank's block.
    pub step_s: f64,
    /// Rank 0's final state: the checkpoint state the layer timings use.
    pub state: Box<dyn Pup>,
    /// The fault-free HPCCG state after `SDC_WINDOW.0` steps, where every
    /// scripted SDC lands or later; for `sdc_masked`.
    sdc_base: Option<AppState<Hpccg>>,
}

impl Reference {
    pub fn build(w: &Workload) -> Reference {
        match w.app {
            App::JacobiHalo { nx, ny, nz } => halo(w.ranks, nx, ny, nz, w.iters),
            App::Hpccg { nx, ny, nz } => {
                let mut base = None;
                let (state, step_s) = standalone(Hpccg::new(nx, ny, nz), w, |i, s| {
                    if w.recover && i == SDC_WINDOW.0 {
                        base = Some(s.clone());
                    }
                });
                Reference::single(state, w.ranks, step_s, base)
            }
        }
    }

    fn single<A: Pup + 'static>(
        mut state: AppState<A>,
        ranks: usize,
        step_s: f64,
        sdc_base: Option<AppState<Hpccg>>,
    ) -> Reference {
        // Self-contained blocks are identical on every rank.
        let packed = pack(&mut state).expect("pack reference");
        Reference {
            finals: vec![packed; ranks],
            step_s,
            state: Box::new(state),
            sdc_base,
        }
    }

    /// Whether the SDC that `seed` injects at iteration `at` (after `at`
    /// steps) has left no trace by iteration `verdict`: the flipped and the
    /// fault-free trajectories pack to the same bytes there. Only then can
    /// a clean verdict at `verdict` be right, because no detector could
    /// see the flip in that checkpoint. A flip into a field the next step
    /// recomputes (HPCCG's `ap`), or into low mantissa bits a later
    /// addition rounds away, ends this way. `false` when `at` is outside
    /// what the reference kept.
    pub fn sdc_masked(&self, seed: u64, at: u64, verdict: u64) -> bool {
        let Some(base) = &self.sdc_base else {
            return false;
        };
        if at < SDC_WINDOW.0 || verdict < at {
            return false;
        }
        let mut clean = base.clone();
        for _ in SDC_WINDOW.0..at {
            clean.app.step();
        }
        let mut hit = clean.clone();
        inject(&mut hit, seed);
        for _ in at..verdict {
            clean.app.step();
            hit.app.step();
        }
        pack(&mut clean).expect("pack") == pack(&mut hit).expect("pack")
    }
}

/// Flip one bit of `state`'s float data the way the runtime's node does
/// for a single-task rank: the victim-task draw, then the injector's
/// byte and bit draws, from one generator seeded with `seed`.
fn inject<T: Pup>(state: &mut T, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let _victim_task: usize = rng.gen_range(0..1usize);
    let mut mapper = RegionMapper::new();
    state.pup(&mut mapper).expect("map regions");
    let mut payload = pack(state).expect("pack");
    SdcInjector::from_rng(rng).corrupt_indexed(&mut payload, mapper.float_bytes(), |n| {
        mapper.nth_float_byte(n)
    });
    unpack(&payload, state).expect("a float flip keeps structure");
}

/// Step a self-contained kernel to the job's iteration target, calling
/// `visit(i, state)` before step `i`. Only the steps are timed.
fn standalone<A: MiniApp + Clone>(
    app: A,
    w: &Workload,
    mut visit: impl FnMut(u64, &mut AppState<A>),
) -> (AppState<A>, f64) {
    let mut state = AppState {
        app,
        total: w.iters,
    };
    let mut stepping = 0.0;
    for i in 0..w.iters {
        visit(i, &mut state);
        let t = Instant::now();
        state.app.step();
        stepping += t.elapsed().as_secs_f64();
    }
    (state, stepping / w.iters as f64)
}

/// Jacobi3D split along X, exchanging faces between steps the way
/// `JacobiHaloTask` does: before step `i > 0`, each block installs the
/// faces its neighbours held after their step `i − 1`. The faces published
/// after the last step end up buffered, unconsumed, in the final state.
fn halo(ranks: usize, nx: usize, ny: usize, nz: usize, iters: u64) -> Reference {
    let mut blocks: Vec<Jacobi3d> = (0..ranks)
        .map(|rank| {
            let mut b = Jacobi3d::new(nx, ny, nz);
            if rank > 0 {
                b.set_halo(Face::XLo, &vec![0.0; ny * nz]);
            }
            b
        })
        .collect();
    let mut stepping = 0.0;
    for i in 0..iters {
        if i > 0 {
            let lo: Vec<Vec<f64>> = blocks.iter().map(|b| b.extract_face(Face::XLo)).collect();
            let hi: Vec<Vec<f64>> = blocks.iter().map(|b| b.extract_face(Face::XHi)).collect();
            for (rank, b) in blocks.iter_mut().enumerate() {
                if rank > 0 {
                    b.set_halo(Face::XLo, &hi[rank - 1]);
                }
                if rank + 1 < ranks {
                    b.set_halo(Face::XHi, &lo[rank + 1]);
                }
            }
        }
        let t = Instant::now();
        for b in blocks.iter_mut() {
            b.step();
        }
        stepping += t.elapsed().as_secs_f64();
    }
    let last = iters - 1;
    let mut states: Vec<HaloState> = (0..ranks)
        .map(|rank| HaloState {
            block: blocks[rank].clone(),
            rank,
            ranks,
            total: iters,
            lo: if rank > 0 {
                vec![(last, blocks[rank - 1].extract_face(Face::XHi))]
            } else {
                Vec::new()
            },
            hi: if rank + 1 < ranks {
                vec![(last, blocks[rank + 1].extract_face(Face::XLo))]
            } else {
                Vec::new()
            },
        })
        .collect();
    let finals = states
        .iter_mut()
        .map(|s| pack(s).expect("pack reference"))
        .collect();
    Reference {
        finals,
        step_s: stepping / (iters as f64 * ranks as f64),
        state: Box::new(states.swap_remove(0)),
        sdc_base: None,
    }
}
