package serve

func hint(r *Response) time.Duration { return r.RetryAfter }
