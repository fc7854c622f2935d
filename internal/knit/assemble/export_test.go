package assemble

// EnumerateWorkers is Enumerate verifying at most workers candidates at
// once; one worker verifies each candidate before searching on.
func EnumerateWorkers(repo Repo, goal *Goal, k int, opts Options, workers int) ([]*Assembly, error) {
	return enumerate(repo, goal, k, opts, workers)
}
