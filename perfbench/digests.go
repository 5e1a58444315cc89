package main

// defaultSeed is the seed whose output digests are pinned below; a run at
// this seed whose digest differs counts as failed.  heldOutSeed is kept
// out of development: a performance claim must also hold there, where
// runs only need to agree with each other.
const (
	defaultSeed = 1
	heldOutSeed = 2
)

// pinned maps each workload to the output digest of the default seed: the
// sha256 (first 16 bytes, hex) of every epoch's core.EncodeDigest followed
// by the rendered reports, and for char-fig234 also the fig2/3/4 tables.
var pinned = map[string]string{
	"stream-4c":   "6f32464880cc28e956ad2b60fc1be5ce",
	"kv-write-4c": "5e690ef6f4c15879feb2651f3acccc9f",
	"profile-32c": "3b9c3d6b8afe9ebb0bfbee753e04f350",
	"char-fig234": "1bd6321a7cb3f4b0e06f6bdb9018b3f1",
}
