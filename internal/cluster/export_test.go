package cluster

// HealthyCount returns how many workers are currently healthy.
func (c *Client) HealthyCount() int { return len(c.healthyNow()) }
