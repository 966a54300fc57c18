package serve

type wire struct {
	Trace bool `json:"record_trace"`
}
