package cluster

// PullCheckpoint exposes the checkpoint transport to the external test
// package, which drives it against real in-process members.
var PullCheckpoint = pullCheckpoint
