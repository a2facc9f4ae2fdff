package main

// Outputs pinned at the default seed. A pass at seed 42 whose output
// digest differs from these counts as a failed check.
const (
	// goldenCampaignData and goldenCampaignFigures are store.DigestDir
	// of a scale-0.3 campaign's data/ and figures/.
	goldenCampaignData    = "239e7163e28456f6562074906e997de82e25aabf85820e984faa94a3c1094305"
	goldenCampaignFigures = "875636f2e63648b4a642d8e52ad4aeb54a2e5e5bed8b14cb9e8221199a36c593"
	// goldenFig10 and goldenFig11 are the sha256 of the replay
	// workload's figure CSVs.
	goldenFig10 = "18796501a9e377a86a39ce89d87fd7a01260f4bffcba6a00dcdfd356e9a5e67b"
	goldenFig11 = "faf5d8562f84512d5e79fb9659148c37dc82428012d76f8b6a28c1f548d0a65f"
	// goldenReanalyzeFigures digests the streaming figure CSVs of the
	// scale-1.0 store.
	goldenReanalyzeFigures = "b8c699a40c088b61762fbf2514b0bbe0fd4a402f98c34864e517aa687823f4a1"
	// goldenBands is how many paper targets the streaming figure set
	// is checked against; every one must pass at the default seed.
	goldenBands = 34
)
