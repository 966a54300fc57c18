package main

import _ "configwall/internal/sim"
