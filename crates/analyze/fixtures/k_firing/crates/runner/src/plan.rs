pub struct RunSpec {
    pub bench: Benchmark,
    pub nodes: usize,
    pub gears: GearSelection,
    pub faults: Option<FaultPlan>,
}
