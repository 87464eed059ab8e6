module dohcost/bench

go 1.24

require dohcost v0.0.0

replace dohcost => ../
