#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PolicySpec {
    Static { gear: usize },
}

pub fn observe(comm: &Comm) -> usize {
    comm.gear()
}
