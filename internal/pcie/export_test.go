package pcie

// ActiveFlows reports the number of in-flight transfers.
func (fb *Fabric) ActiveFlows() int { return len(fb.flows) }
