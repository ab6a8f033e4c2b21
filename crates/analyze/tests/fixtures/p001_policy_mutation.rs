//! Seeded violation: the policy layer reaching into simulation state.
use psc_mpi::cluster::Cluster;

pub fn decide(comm: &mut Comm) -> usize {
    comm.set_gear(4);
    4
}

pub fn preview(engine: &Engine, cfg: &ClusterConfig, skeleton: &Skeleton) -> RunResult {
    engine.cluster().retime(cfg, None, None, skeleton)
}
