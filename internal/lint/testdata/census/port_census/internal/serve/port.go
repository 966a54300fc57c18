package serve

import _ "configwall/internal/accel/gemmini"
