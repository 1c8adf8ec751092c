// Package pretrained holds the committed checkpoints, NAME.gob as
// cmd/pretrain writes them, built into every binary that links it (a
// regenerated one reaches the binaries at the next build).
package pretrained

import "embed"

// FS holds the checkpoints at its root.
//
//go:embed *.gob
var FS embed.FS
