//! K001 firing fixture: a kernel whose iteration count depends on the
//! gear it runs at (directly) and on its virtual clock (through a
//! helper in another crate) — its recorded skeleton would be wrong at
//! every other gear.
use psc_machine::tune::running_late;

pub fn run_cg(comm: &mut Comm) {
    let sweeps = if comm.gear() > 3 { 2 } else { 4 };
    for _ in 0..sweeps {
        comm.compute();
        if running_late(comm) {
            break;
        }
    }
}
