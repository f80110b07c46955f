package segfile

import "adapt/internal/lss"

// LogName is the log file's name in a shard directory.
const LogName = logName

// RegionOffset and RegionBytes place segment id's region in a log laid
// out for cfg, for tests that plant or cut region bytes.
func RegionOffset(cfg lss.Config, id int) int64 { return newLayout(cfg).regionOff(id) }

func RegionBytes(cfg lss.Config) int64 { return newLayout(cfg).regionBytes }
