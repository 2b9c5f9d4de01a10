package testonly

func callers() {
	Exported()
	unexported()
	recursive(1)
	Hatched()
	unjustified()
	_ = stamp{}.Label()
}
