impl Engine {
    pub fn cache_key(&self, spec: &RunSpec) -> u64 {
        let d = format!("{}|{}|{:?}", spec.bench.name(), spec.nodes, spec.resolved_gears());
        let f = self.effective_faults(spec);
        fnv1a64(d.as_bytes()) ^ f.map_or(0, |p| fnv1a64(p.to_json().as_bytes()))
    }
    fn execute_spec(&self, spec: &RunSpec) -> RunResult {
        self.cluster.run(&spec.config(), |comm| spec.bench.run(comm))
    }
}
