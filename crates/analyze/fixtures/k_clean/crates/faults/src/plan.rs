#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultPlan {
    pub seed: u64,
}
