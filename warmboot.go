package indra

// WarmBooter once cached post-boot snapshots and restored service chips
// from them. A cold boot through bootChip costs less than such a
// restore, so every chip now cold-boots, a WarmBooter holds nothing,
// and nothing reads it.
//
// Deprecated: drop it. WarmBooter, NewWarmBooter, ExpOptions.Warm and
// serve.Config.Warm remain only because the perfbench module still
// names them.
type WarmBooter struct{}

// NewWarmBooter returns an empty WarmBooter.
//
// Deprecated: see WarmBooter.
func NewWarmBooter() *WarmBooter { return &WarmBooter{} }
